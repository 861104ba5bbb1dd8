#pragma once

/// \file trace.h
/// \brief Lightweight request tracing: spans over the trace position of
/// the ambient `common::RequestContext`.
///
/// A `Span` marks one stage of one request: it captures the calling
/// thread's trace context as its parent (starting a fresh trace when none
/// is in scope), installs itself as the current context for its lifetime,
/// and on destruction appends a finished `SpanRecord` — (trace id, span
/// id, parent, stage, start, duration) — to its registry's `TraceLog`,
/// optionally recording the duration into a latency `Histogram`.
///
/// Propagation is implicit: anything called under an open span (engine →
/// expander → `graph::CycleEnumerator`) sees the context via the one
/// thread-local carrier in common/deadline.h, `common::ThreadPool::Submit`
/// re-installs the submitter's context inside the task, and `WQE_LOG`
/// lines carry the trace id.  A span moves only the trace position; the
/// request's budget (deadline, cancel token) is left as it was.
///
/// Cost: two steady-clock reads and a histogram record per span, plus an
/// allocation-free locked ring append on head-sampled traces only (see
/// `SetTraceSampleEvery`; default every 8th trace); inert (no clock
/// reads) when `obs::Enabled()` is off.

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/deadline.h"

namespace wqe::obs {

class Histogram;
class MetricsRegistry;

/// \brief One finished span.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 for a trace root
  /// Stage name.  A view, not an owned string, so appending a record
  /// never allocates on the serve hot path; every producer passes a
  /// string literal (`Span` takes `const char*`), and custom producers
  /// must likewise point at static storage.
  std::string_view stage;
  double start_ms = 0.0;  ///< steady-clock ms since process start
  double duration_ms = 0.0;
};

/// \brief Bounded ring of finished spans (newest overwrite oldest).
/// Thread-safe; the append lock is held for one record copy.
class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 1024);

  void Append(SpanRecord record) WQE_EXCLUDES(mu_);
  /// \brief Resident records, oldest first.
  std::vector<SpanRecord> Snapshot() const WQE_EXCLUDES(mu_);
  void Clear() WQE_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable common::Mutex mu_;
  std::vector<SpanRecord> ring_ WQE_GUARDED_BY(mu_);
  size_t next_ WQE_GUARDED_BY(mu_) = 0;  ///< overwrite cursor once full
};

/// \brief Fresh nonzero trace id (mixed so ids look random but the
/// sequence is deterministic per process run).
uint64_t NewTraceId();
/// \brief Fresh nonzero span id.
uint64_t NewSpanId();

/// \brief Head-sampling rate for the trace log: every `n`-th trace root
/// is sampled and its whole span tree recorded (1 = every trace, 0 =
/// none).  Default 8 — the log is a bounded debugging ring, so sampling
/// stretches its coverage window and keeps the serve hot path's ring
/// appends off seven of eight requests; histograms and counters always
/// see every request regardless.  Tests that assert on specific records
/// set this to 1.
void SetTraceSampleEvery(uint32_t n);
uint32_t GetTraceSampleEvery();

/// \brief Steady-clock milliseconds since the first observability use in
/// this process; the time base of `SpanRecord::start_ms`.
double MillisSinceProcessStart(std::chrono::steady_clock::time_point tp);

/// \brief RAII stage span.  See the file comment.
class Span {
 public:
  /// \brief Opens a span for `stage`.  `latency` (may be null) receives
  /// the duration on close; `registry` (null = the global registry)
  /// receives the finished record in its trace log.  Inert when
  /// observability is disabled.
  explicit Span(const char* stage, Histogram* latency = nullptr,
                MetricsRegistry* registry = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// \brief This span's trace position ({0,0} when the span is inert).
  const common::TracePosition& context() const { return ctx_; }

 private:
  const char* stage_;
  Histogram* latency_;
  MetricsRegistry* registry_;
  bool active_ = false;
  common::TracePosition ctx_;
  common::TracePosition parent_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wqe::obs
