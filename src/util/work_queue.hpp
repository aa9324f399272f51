// A closeable FIFO that moves work between threads: one mutex, one
// condition variable and a deque. Any number of producers and consumers
// may share it. It is the only hand-off primitive the campaign executor
// (core/session.cpp) and util::ThreadPool use: jobs out to the workers,
// completions back to the merge strand, closures to the pool's threads.
//
// Every consumer pops from the same queue, so an idle consumer always
// takes the oldest waiting item — a slow item never strands the ones
// queued behind it. The queue is unbounded, so push() never blocks or
// fails. push() and close() notify before they release the lock, so a
// consumer may destroy the queue as soon as its last pop() returned
// (util::ThreadPool's per-batch completion queue lives on the stack).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

namespace specure::util {

template <typename T>
class WorkQueue {
 public:
  WorkQueue() = default;
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Append `value` and wake one waiting consumer.
  void push(T value) {
    std::lock_guard<std::mutex> lk(mu_);
    items_.push_back(std::move(value));
    cv_.notify_one();
  }

  /// Block until an item is available and move the oldest into `out`.
  /// False once the queue is closed and drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return closed_ || !items_.empty(); });
    return take(out);
  }

  /// pop() without blocking: false when the queue is empty right now.
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lk(mu_);
    return take(out);
  }

  /// No more pushes will follow. Blocked consumers wake; pop() hands out
  /// the remaining items, then returns false.
  void close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  bool take(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;  ///< guarded by mu_
  bool closed_ = false;  ///< guarded by mu_
};

}  // namespace specure::util
