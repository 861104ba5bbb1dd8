#include "common/deadline.h"

#include <cmath>

namespace wqe::common {

namespace {

thread_local RequestContext t_request_context;

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

RequestContext RequestContext::ForRequest(double deadline_ms,
                                          const CancelToken& cancel) {
  RequestContext request;
  if (deadline_ms > 0.0) request.deadline = Deadline::AfterMillis(deadline_ms);
  request.cancel = cancel;
  return Merge(t_request_context, request);
}

const RequestContext& CurrentRequestContext() { return t_request_context; }

RequestContext ExchangeCurrentRequestContext(RequestContext ctx) {
  RequestContext previous = std::move(t_request_context);
  t_request_context = std::move(ctx);
  return previous;
}

bool ExecInterrupted() {
  const RequestContext& ctx = t_request_context;
  // Cheap checks first: a relaxed flag load beats a clock read.
  if (ctx.cancel.cancelled()) return true;
  return ctx.deadline.expired();
}

Status ExecStatus() {
  const RequestContext& ctx = t_request_context;
  if (ctx.cancel.cancelled()) return Status::Cancelled("request cancelled");
  if (ctx.deadline.expired()) {
    return Status::DeadlineExceeded("request deadline exceeded");
  }
  return Status::OK();
}

}  // namespace wqe::common
