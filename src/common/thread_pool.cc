#include "common/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/deadline.h"

namespace wqe::common {

namespace {
/// Set for the lifetime of WorkerLoop; never cleared mid-run, so a task
/// can always identify the pool it is running on.
thread_local ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool* ThreadPool::CurrentWorkerPool() { return t_current_pool; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads_ = num_threads;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Enqueue(std::function<void()> fn) {
  // One capture of the submitter's whole request context — trace
  // position and budget — installed around the task, so spans opened
  // inside it parent under the submitting request and its deadline binds
  // the pool-side work.
  RequestContext ctx = CurrentRequestContext();
  {
    MutexLock lock(mu_);
    WQE_CHECK(!shutdown_);
    queue_.push_back([fn = std::move(fn), ctx = std::move(ctx)]() mutable {
      ScopedRequestContext scope(std::move(ctx));
      fn();
    });
  }
  cv_.NotifyOne();
}

void ThreadPool::Shutdown() {
  // A worker joining its own pool can never return (it would wait on
  // itself); the drain must be driven from outside the pool.
  WQE_DCHECK(!OnWorkerThread());
  // Serialize whole shutdowns (not just the flag flip): a second caller
  // blocks here until the first finishes joining, so concurrent Shutdown
  // calls can never double-join the same workers, and every caller
  // returns only once the pool is fully drained.
  MutexLock shutdown_lock(shutdown_mu_);
  {
    MutexLock lock(mu_);
    if (shutdown_ && workers_.empty()) return;  // already shut down
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t ThreadPool::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

uint32_t EffectiveParallelism(uint32_t num_threads, const ThreadPool* pool) {
  if (num_threads == 1) return 1;
  if (ThreadPool::CurrentWorkerPool() != nullptr) return 1;
  uint32_t t = num_threads;
  if (t == 0) {
    t = pool != nullptr ? static_cast<uint32_t>(pool->num_threads()) + 1
                        : std::max(1u, std::thread::hardware_concurrency());
  }
  return std::max(1u, t);
}

void RunParallel(ThreadPool* pool, size_t extra,
                 const std::function<void()>& worker) {
  WQE_DCHECK(pool == nullptr || !pool->OnWorkerThread());
  std::unique_ptr<ThreadPool> transient;
  if (pool == nullptr && extra > 0) {
    transient = std::make_unique<ThreadPool>(extra);
    pool = transient.get();
  }
  std::vector<std::future<void>> futures;
  futures.reserve(extra);
  for (size_t i = 0; i < extra; ++i) futures.push_back(pool->Submit(worker));
  worker();
  for (std::future<void>& f : futures) f.get();
}

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Open-coded wait loop (no predicate lambda) so the analysis can
      // see the guarded reads happen under mu_.
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace wqe::common
