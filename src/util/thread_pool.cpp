#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace specure::util {

namespace {

/// One parallel_for call, on the caller's stack. The caller returns only
/// after every helper it enlisted reported on `finished`, so no closure
/// outlives it.
struct Batch {
  Batch(const std::function<void(std::size_t, std::size_t)>& f,
        std::size_t n)
      : fn(f), tasks(n) {}

  const std::function<void(std::size_t, std::size_t)>& fn;
  const std::size_t tasks;
  std::atomic<std::size_t> next{0};  ///< the dynamic task cursor
  std::atomic<bool> failed{false};
  /// Written once, by the task that set `failed`; read by the caller
  /// after `finished` ordered every helper's writes before it.
  std::exception_ptr error;
  WorkQueue<std::size_t> finished;  ///< one entry per enlisted helper
};

/// Claim and run tasks of `batch` on `context` until none are left.
void run_tasks(Batch& batch, std::size_t context) {
  for (;;) {
    // Tasks are independent and the batch was published by the queue's
    // mutex, so claiming needs only the RMW's atomicity.
    const std::size_t task = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (task >= batch.tasks) return;
    try {
      batch.fn(task, context);
    } catch (...) {
      if (!batch.failed.exchange(true)) batch.error = std::current_exception();
      // Abandon unclaimed tasks: park the cursor at the end.
      batch.next.store(batch.tasks, std::memory_order_relaxed);
      return;
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t contexts)
    : contexts_(contexts == 0 ? 1 : contexts) {
  threads_.reserve(contexts_ - 1);
  for (std::size_t c = 1; c < contexts_; ++c) {
    threads_.emplace_back([this, c] {
      std::function<void(std::size_t)> job;
      while (queue_.pop(job)) job(c);
    });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& t : threads_) t.join();
}

void ThreadPool::parallel_for(
    std::size_t tasks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (tasks == 0) return;
  Batch batch(fn, tasks);
  // The caller takes tasks too, so more than tasks - 1 helpers could
  // only find the cursor exhausted.
  const std::size_t helpers = std::min(threads_.size(), tasks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    queue_.push([&batch](std::size_t context) {
      run_tasks(batch, context);
      batch.finished.push(context);
    });
  }
  run_tasks(batch, 0);  // the caller is context 0
  std::size_t helper = 0;
  for (std::size_t h = 0; h < helpers; ++h) batch.finished.pop(helper);
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace specure::util
