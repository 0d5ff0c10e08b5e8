// Fixed-size thread pool.
//
// Used by benches to replicate stochastic experiments across seeds in
// parallel, by the BO inner loop to score acquisition candidates
// concurrently (core::propose_candidate writes into per-index slots and
// reduces with a deterministic lowest-index argmax, so results are
// bit-identical at any thread count), and by core::AsyncEvalExecutor to
// keep async_q evaluations in flight with ticket-ordered starts and FIFO
// ingestion. baselines::parallel_bo only *simulates* q-way evaluation
// parallelism, with round barriers over a BoTuner session and wall-clock
// accounting — its evaluations never run on threads.
//
// Shutdown contract: the destructor marks the pool stopped, wakes every
// worker, and joins. Workers keep pulling until the queue is drained, so
// every submitted task runs to completion before ~ThreadPool returns;
// submit() after the destructor has started throws std::logic_error.
// A task that throws stores its exception in the matching future.
//
// Lock discipline (statically checked under clang -Wthread-safety): the
// queue, the stop flag, and the intrusive Stats are guarded by one mutex;
// tasks themselves always run with it released.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.h"

namespace autodml::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future yields its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    auto fut = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopped_) throw std::logic_error("ThreadPool: submit after stop");
      tasks_.emplace([task] { (*task)(); });
      ++stats_.submitted;
      stats_.queue_depth = tasks_.size();
      stats_.peak_queue_depth =
          std::max(stats_.peak_queue_depth, tasks_.size());
    }
    cv_.notify_one();
    return fut;
  }

  std::size_t size() const { return workers_.size(); }

  /// Lifetime scheduling statistics, maintained under the queue mutex (the
  /// obs layer publishes these as gauges; the pool itself stays free of
  /// any obs dependency).
  struct Stats {
    std::uint64_t submitted = 0;   // tasks ever enqueued
    std::uint64_t completed = 0;   // tasks that finished running
    std::size_t queue_depth = 0;   // queued (not yet running) at last event
    std::size_t peak_queue_depth = 0;
  };
  Stats stats() const ADML_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ ADML_GUARDED_BY(mutex_);
  Stats stats_ ADML_GUARDED_BY(mutex_);
  bool stopped_ ADML_GUARDED_BY(mutex_) = false;
};

/// Run fn(i) for i in [0, n) across the pool and wait for completion.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace autodml::util
