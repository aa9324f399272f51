// Fixed-size pool for batch-parallel loops.
//
// parallel_for(n, fn) invokes fn(task_index, context_index) for every task
// in [0, n). Tasks are claimed dynamically (an atomic cursor), so uneven
// task costs balance automatically. context_index is unique among
// concurrently running invocations and always < contexts(); callers use it
// to index per-thread scratch state (e.g. one simulator per context).
//
// The calling thread participates as context 0, so a pool with
// contexts() == 1 spawns no threads and runs everything on the caller.
// The contexts() - 1 background threads drain one WorkQueue of closures:
// each parallel_for pushes one closure per helper it wants, and a helper
// that runs it claims tasks until the cursor runs out.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/work_queue.hpp"

namespace specure::util {

class ThreadPool {
 public:
  /// A pool with `contexts` execution contexts: the caller plus
  /// contexts - 1 background threads. contexts == 0 is treated as 1.
  explicit ThreadPool(std::size_t contexts);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t contexts() const { return contexts_; }

  /// Run fn(task, context) for task in [0, tasks); blocks until all tasks
  /// finished. If any invocation throws, the remaining unclaimed tasks are
  /// abandoned and the first exception is rethrown here. Not reentrant.
  void parallel_for(std::size_t tasks,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  std::size_t contexts_;
  /// Closures for the background threads; each runs its closure with
  /// its own context index.
  WorkQueue<std::function<void(std::size_t)>> queue_;
  std::vector<std::thread> threads_;
};

}  // namespace specure::util
