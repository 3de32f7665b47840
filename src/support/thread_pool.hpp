// A small fixed-size thread pool with a parallel_for helper.
//
// Used to parallelize embarrassingly parallel inner loops (random-forest
// tree fitting, batch prediction, sweeps over configurations). All
// parallelism in portatune is explicit and goes through this pool, per the
// HPC guideline of keeping thread creation out of hot paths.
//
// Two observability seams, both dormant by default:
//   * Span propagation — submit() captures the submitter's SpanContext
//     and re-installs it around the task on the worker, so profiling
//     spans emitted worker-side still parent to the search window /
//     experiment cell that scheduled them (two TLS words, no locks).
//     The submitter's ambient CancellationToken rides along the same way,
//     so a cancelled search window reaches the evaluations it fanned out.
//   * Telemetry — an optional process-wide ThreadPoolObserver receives
//     queue-depth / queue-wait / execute callbacks per task. With none
//     installed the pool pays one relaxed atomic load per transition and
//     never reads the clock (obs::ThreadPoolMetrics is the standard
//     implementation, publishing pool.* instruments).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "support/cancellation.hpp"
#include "support/span_context.hpp"

namespace portatune {

/// Telemetry callbacks for thread-pool activity. Implementations must be
/// thread-safe and cheap (they run inline on submitters and workers).
/// Install process-wide with set_thread_pool_observer; all pools (the
/// global pool, parallel evaluators, the experiment pool, watchdogs)
/// report to the same observer.
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
  /// under the submitter's SpanContext and ambient CancellationToken, so
  /// both causality and cancellation survive the thread hop. The future
  /// becomes ready only after the observer has seen the task finish, so a
  /// caller that waited for all its tasks may uninstall the observer.
  template <typename F>
  std::future<void> submit(F&& f) {
    std::promise<void> done;
    std::future<void> fut = done.get_future();
    const SpanContext ctx = current_span_context();
    const CancellationToken cancel = current_cancellation_token();
    ThreadPoolObserver* const observer = thread_pool_observer();
    std::size_t depth;
    {
      std::lock_guard lock(mutex_);
      queue_.push(QueuedTask{
          [fn = std::forward<F>(f), ctx, cancel]() mutable {
            SpanScope scope(ctx);
            CancellationScope cancel_scope(cancel);
            fn();
          },
          std::move(done),
          observer != nullptr ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{}});
      depth = queue_.size();
    }
    if (observer != nullptr) observer->on_submit(depth);
    cv_.notify_one();
    return fut;
  }

  /// Run body(i) for i in [begin, end) across the pool, blocking until all
  /// iterations complete. Exceptions from the body are rethrown (first one).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  /// One queued task plus its enqueue timestamp (default-constructed —
  /// "unknown" — when no observer was installed at submit time, so the
  /// dormant path never reads the clock).
  struct QueuedTask {
    std::function<void()> fn;
    std::promise<void> done;  ///< completes the future
    std::chrono::steady_clock::time_point enqueued{};
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace portatune
