// Thread-pool telemetry published through the metrics registry.
//
// support::ThreadPool exposes a process-wide ThreadPoolObserver hook
// (dormant: one relaxed atomic load per task transition, no clock reads
// when none is installed). ThreadPoolMetrics is the standard
// implementation: it turns the callbacks into registry instruments so a
// metrics snapshot answers "was the pool the bottleneck?" —
//
//   pool.tasks_submitted / pool.tasks_completed   counters
//   pool.queue_depth                              gauge (last observed)
//   pool.workers_busy                             gauge (current)
//   pool.queue_wait_seconds                       histogram per task
//   pool.execute_seconds                          histogram per task
//
// All ThreadPools report to the one installed observer (the global pool,
// ParallelEvaluator pools, resilience attempt pools), so the series
// aggregate process-wide; per-worker attribution comes from the event log
// (span tids), not from metrics. A parallel_for helper withdrawn before it
// started is reported by the loop's caller as a task that waited and then
// finished at once, so submitted and completed still balance.
#pragma once

#include <atomic>

#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"

namespace portatune::obs {

class ThreadPoolMetrics final : public ThreadPoolObserver {
 public:
  /// Instruments bind to `registry` (default: the registry current at
  /// construction).
  explicit ThreadPoolMetrics(MetricsRegistry* registry = nullptr);

  void on_submit(std::size_t queue_depth) noexcept override {
    submitted_->add();
    queue_depth_->set(static_cast<double>(queue_depth));
  }
  void on_start(double queue_wait_seconds,
                std::size_t queue_depth) noexcept override {
    queue_depth_->set(static_cast<double>(queue_depth));
    queue_wait_->observe(queue_wait_seconds);
    workers_busy_->set(static_cast<double>(
        busy_.fetch_add(1, std::memory_order_relaxed) + 1));
  }
  void on_finish(double execute_seconds) noexcept override {
    completed_->add();
    execute_->observe(execute_seconds);
    workers_busy_->set(static_cast<double>(
        busy_.fetch_sub(1, std::memory_order_relaxed) - 1));
  }

 private:
  Counter* submitted_;
  Counter* completed_;
  Gauge* queue_depth_;
  Gauge* workers_busy_;
  Histogram* queue_wait_;
  Histogram* execute_;
  /// Our own busy count: Gauge is last-write-wins, so concurrent workers
  /// need a shared counter to publish a consistent occupancy.
  std::atomic<long> busy_{0};
};

/// RAII installation: installs a ThreadPoolMetrics as the process
/// observer on construction, restores the previous observer on
/// destruction (tests; CLI observability sessions).
class ScopedThreadPoolMetrics {
 public:
  explicit ScopedThreadPoolMetrics(MetricsRegistry* registry = nullptr)
      : metrics_(registry), previous_(thread_pool_observer()) {
    set_thread_pool_observer(&metrics_);
  }
  ~ScopedThreadPoolMetrics() { set_thread_pool_observer(previous_); }

  ScopedThreadPoolMetrics(const ScopedThreadPoolMetrics&) = delete;
  ScopedThreadPoolMetrics& operator=(const ScopedThreadPoolMetrics&) = delete;

 private:
  ThreadPoolMetrics metrics_;
  ThreadPoolObserver* previous_;
};

}  // namespace portatune::obs
