#include "common/deadline.h"

#include <cmath>

namespace wqe::common {

namespace {

thread_local ExecContext g_exec_context;

}  // namespace

Deadline Deadline::AfterMillis(double ms) {
  Deadline d;
  const auto now = std::chrono::steady_clock::now();
  if (ms <= 0.0) {
    d.when_ = now;
    return d;
  }
  // Saturate absurd budgets at infinite instead of overflowing the
  // duration arithmetic.
  const double max_ms = 1e15;
  if (ms >= max_ms) return d;
  d.when_ = now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
  return d;
}

double Deadline::remaining_ms() const {
  if (is_infinite()) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(
             when_ - std::chrono::steady_clock::now())
      .count();
}

ExecContext ExecContext::ForRequest(double deadline_ms,
                                    const CancelToken& cancel) {
  ExecContext request;
  if (deadline_ms > 0.0) request.deadline = Deadline::AfterMillis(deadline_ms);
  request.cancel = cancel;
  return Merge(g_exec_context, request);
}

const ExecContext& CurrentExecContext() { return g_exec_context; }

ExecContext ExchangeCurrentExecContext(ExecContext ctx) {
  ExecContext previous = std::move(g_exec_context);
  g_exec_context = std::move(ctx);
  return previous;
}

bool ExecInterrupted() {
  const ExecContext& ctx = g_exec_context;
  // Cheap checks first: a relaxed flag load beats a clock read.
  if (ctx.cancel.cancelled()) return true;
  return ctx.deadline.expired();
}

Status ExecStatus() {
  const ExecContext& ctx = g_exec_context;
  if (ctx.cancel.cancelled()) return Status::Cancelled("request cancelled");
  if (ctx.deadline.expired()) {
    return Status::DeadlineExceeded("request deadline exceeded");
  }
  return Status::OK();
}

}  // namespace wqe::common
