#pragma once

/// \file deadline.h
/// \brief Deadlines, cooperative cancellation, and the one thread-local
/// request context that carries them together with the trace position.
///
/// A request's ambient state is one `RequestContext`: where it is in its
/// trace (trace id, innermost open span, sampling decision) and its budget
/// (deadline, cancel token).  It lives at the bottom of the layering so the
/// graph kernels can poll the budget, and `common/logging.cc` can tag log
/// lines with the trace id, without depending on the layers above them.
/// `obs::Span` (obs/trace.h) moves the trace position as spans open and
/// close; `common::ThreadPool` copies the submitter's whole context once at
/// submit time and installs it around the task, so traces and budgets
/// follow a request across pool hops and the parallel enumeration workers
/// see the deadline of the request that spawned them.
///
/// Cooperative checks are deliberately cheap: when no deadline is set and
/// no cancel token is attached, `ExecInterrupted()` is a thread-local
/// load plus two predictable branches — no clock read, no atomics.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "common/status.h"

namespace wqe::common {

/// \brief A point in time after which a request's work should stop.
///
/// Default-constructed deadlines are infinite (never expire) and cost
/// nothing to check.  Deadlines are values: copying one shares the same
/// instant, and the tighter of two deadlines wins under `Tighten`.
class Deadline {
 public:
  /// Infinite: never expires.
  Deadline() = default;

  /// \brief A deadline `ms` milliseconds from now ("now" on the steady
  /// clock, so wall-clock adjustments can't fire or starve it).  A
  /// non-positive `ms` yields an already-expired deadline.
  static Deadline AfterMillis(double ms);

  /// \brief The tighter (earlier) of the two deadlines.
  static Deadline Tighten(const Deadline& a, const Deadline& b) {
    return a.when_ < b.when_ ? a : b;
  }

  bool is_infinite() const {
    return when_ == std::chrono::steady_clock::time_point::max();
  }

  /// \brief True iff the deadline has passed.  Infinite deadlines never
  /// expire (and skip the clock read).
  bool expired() const {
    return !is_infinite() && std::chrono::steady_clock::now() >= when_;
  }

  /// \brief Milliseconds until expiry: negative once expired, +infinity
  /// for an infinite deadline.
  double remaining_ms() const;

 private:
  std::chrono::steady_clock::time_point when_ =
      std::chrono::steady_clock::time_point::max();
};

class CancelSource;

/// \brief A read-only view of a cancellation flag.
///
/// Default-constructed tokens are null: `valid()` is false and they can
/// never report cancellation.  Real tokens come from a `CancelSource` and
/// share its flag; copying a token is a shared_ptr copy.
class CancelToken {
 public:
  CancelToken() = default;

  /// \brief True iff this token is attached to a `CancelSource`.
  bool valid() const { return flag_ != nullptr; }

  /// \brief True iff the owning source has requested cancellation.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// \brief The writable end of a cancellation flag.
///
/// The caller that owns the request keeps the source and hands tokens to
/// the work; `RequestCancel()` is sticky (there is no un-cancel) and safe
/// to call from any thread, including concurrently with token reads.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief A request's position in its trace.  A zero trace id means "no
/// trace in scope".
struct TracePosition {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  ///< innermost open span (0 at a trace root)
  /// Head-sampling decision, made once at the trace root and inherited
  /// by every child span (Dapper-style consistent sampling): only
  /// sampled traces append `SpanRecord`s to the trace log.  Latency
  /// histograms are unaffected — they record every request.
  bool sampled = false;

  bool active() const { return trace_id != 0; }
};

/// \brief The ambient state of the calling thread's request: its trace
/// position, how long it may keep running, and whether its caller has
/// asked it to stop.
struct RequestContext {
  TracePosition trace;
  Deadline deadline;
  CancelToken cancel;

  /// \brief True iff there is a budget to check (finite deadline or an
  /// attached cancel token).  The budget-free fast path is branch-only.
  bool has_budget() const {
    return !deadline.is_infinite() || cancel.valid();
  }

  /// \brief Combines an inherited (ambient) context with a per-request
  /// one: the trace position is the ambient one, the tighter deadline
  /// wins, and the request's cancel token takes precedence when it has
  /// one.
  static RequestContext Merge(const RequestContext& ambient,
                              const RequestContext& request) {
    RequestContext out;
    out.trace = ambient.trace;
    out.deadline = Deadline::Tighten(ambient.deadline, request.deadline);
    out.cancel = request.cancel.valid() ? request.cancel : ambient.cancel;
    return out;
  }

  /// \brief The context one request should run under: its own budget
  /// (`deadline_ms > 0` starts a deadline now; 0 means none) and cancel
  /// token, merged with the calling thread's ambient context so the
  /// request stays in the caller's trace, the tighter deadline wins and
  /// a caller's budget cannot be loosened.
  static RequestContext ForRequest(double deadline_ms,
                                   const CancelToken& cancel);
};

/// \brief The calling thread's current request context (no trace,
/// infinite deadline, no token when none has been installed).
const RequestContext& CurrentRequestContext();

/// \brief Installs `ctx` as the calling thread's context and returns the
/// previous one.  Callers restore the returned value when their scope
/// ends (`ScopedRequestContext` and `obs::Span` do this via RAII).
RequestContext ExchangeCurrentRequestContext(RequestContext ctx);

/// \brief RAII installer for a `RequestContext`, restoring the previous
/// context on destruction.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext ctx)
      : previous_(ExchangeCurrentRequestContext(std::move(ctx))) {}
  ~ScopedRequestContext() {
    ExchangeCurrentRequestContext(std::move(previous_));
  }

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext previous_;
};

/// \brief True iff the ambient context wants the current work to stop
/// (cancel requested, or deadline expired).  This is the cooperative
/// check the long-running kernels poll; the no-context fast path does
/// not touch the clock.
bool ExecInterrupted();

/// \brief OK while the ambient context allows work to continue;
/// `Status::Cancelled` / `Status::DeadlineExceeded` otherwise.  Cancel
/// wins over deadline when both fired (the caller explicitly asked).
Status ExecStatus();

}  // namespace wqe::common
