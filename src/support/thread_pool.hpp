// A small fixed-size thread pool with a nest-safe parallel_for.
//
// Used to parallelize embarrassingly parallel loops (experiment cells,
// random-forest tree fitting, pool ranking, evaluation windows). All
// parallelism in portatune is explicit and goes through this pool, per the
// HPC guideline of keeping thread creation out of hot paths. A process
// runs its CPU work on ThreadPool::global(): experiment cells and the
// fan-outs inside them share its workers, which parallel_for's contract
// (below) makes deadlock-free at any nesting depth. Only ParallelEvaluator
// and ResilientEvaluator build pools of their own, for reasons given there.
//
// Two observability seams, both dormant by default:
//   * Span propagation — submit() captures the submitter's SpanContext
//     and re-installs it around the task on the worker, so profiling
//     spans emitted worker-side still parent to the search window /
//     experiment cell that scheduled them (two TLS words, no locks).
//   * Telemetry — an optional process-wide ThreadPoolObserver receives
//     queue-depth / queue-wait / execute callbacks per task. With none
//     installed the pool pays one relaxed atomic load per transition and
//     never reads the clock (obs::ThreadPoolMetrics is the standard
//     implementation, publishing pool.* instruments).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/span_context.hpp"

namespace portatune {

/// Telemetry callbacks for thread-pool activity. Implementations must be
/// thread-safe and cheap (they run inline on submitters and workers).
/// Install process-wide with set_thread_pool_observer; all pools (the
/// global pool, parallel evaluators, resilience attempt pools) report to
/// the same observer.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;

  /// A task was enqueued; `queue_depth` is the depth after the push.
  virtual void on_submit(std::size_t queue_depth) noexcept = 0;
  /// A worker dequeued a task and is about to run it. `queue_wait_seconds`
  /// is the time the task spent queued (0 when the observer was installed
  /// after the task was enqueued); `queue_depth` is the depth after the
  /// pop.
  virtual void on_start(double queue_wait_seconds,
                        std::size_t queue_depth) noexcept = 0;
  /// The task returned after `execute_seconds` on the worker.
  virtual void on_finish(double execute_seconds) noexcept = 0;
};

namespace detail {
inline std::atomic<ThreadPoolObserver*> g_pool_observer{nullptr};
}  // namespace detail

/// The installed observer (nullptr = telemetry off, the dormant default).
inline ThreadPoolObserver* thread_pool_observer() noexcept {
  return detail::g_pool_observer.load(std::memory_order_acquire);
}
/// Install a process-wide observer (non-owning; nullptr to disable). The
/// observer must outlive its installation.
inline void set_thread_pool_observer(ThreadPoolObserver* observer) noexcept {
  detail::g_pool_observer.store(observer, std::memory_order_release);
}

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion. The task runs
  /// under the submitter's SpanContext, so causality survives the thread
  /// hop. The future becomes ready only after the observer has seen the
  /// task finish, so a caller that waited for all its tasks may uninstall
  /// the observer.
  template <typename F>
  std::future<void> submit(F&& f) {
    return enqueue(std::function<void()>(std::forward<F>(f)), nullptr);
  }

  /// Run body(i) for every i in [begin, end), blocking until the loop is
  /// done. Safe from any thread, including a worker of this pool at any
  /// nesting depth. The contract:
  ///
  ///  1. The caller runs chunks of its own loop. It queues at most
  ///     `max_threads - 1` helper tasks, claims chunks until none is left,
  ///     then withdraws the helpers that have not started. It waits only
  ///     for chunks another thread has already claimed, never for a queued
  ///     task, so nested loops cannot deadlock even when every worker is
  ///     busy (the caller then runs the whole loop itself).
  ///  2. Once it returns, no pool thread touches the loop's state or calls
  ///     the installed ThreadPoolObserver on the loop's behalf, so the
  ///     caller may uninstall and destroy the observer. The caller reports
  ///     each withdrawn helper itself (on_start, then on_finish with zero
  ///     execute time): every on_submit still gets both.
  ///  3. `max_threads` caps the participants, the caller included; 0 means
  ///     the caller plus every worker. Indices are claimed in chunks of
  ///     n / min(n, 4 * w), w = `max_threads` (0: size()).
  ///  4. The first exception a chunk throws is rethrown; a participant whose
  ///     chunk threw claims no more. Helpers run under the caller's
  ///     SpanContext, as submit() tasks do. With no observer installed the
  ///     loop reads no clock.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t max_threads = 0);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  /// One queued task with what it runs under. `enqueued` is
  /// default-constructed ("unknown") when no observer was installed at
  /// submit time, so the dormant path never reads the clock.
  struct QueuedTask {
    std::function<void()> fn;
    std::promise<void> done;  ///< completes the future
    std::chrono::steady_clock::time_point enqueued{};
    SpanContext span;
    const void* owner = nullptr;  ///< the parallel_for a helper serves
  };

  std::future<void> enqueue(std::function<void()> fn, const void* owner);
  /// Drop `owner`'s queued helpers, reporting each to the observer as a
  /// task that started and finished at once.
  void withdraw(const void* owner);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace portatune
