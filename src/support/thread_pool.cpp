#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace portatune {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    QueuedTask task = std::move(queue_.front());
    queue_.pop();
    const std::size_t depth = queue_.size();
    lock.unlock();
    ThreadPoolObserver* const observer = thread_pool_observer();
    std::chrono::steady_clock::time_point start;
    if (observer != nullptr) {
      start = std::chrono::steady_clock::now();
      // A zero enqueue stamp means the observer was installed after this
      // task was queued; report an unknown (zero) wait rather than a
      // bogus epoch-relative one.
      const double wait =
          task.enqueued.time_since_epoch().count() != 0
              ? std::chrono::duration<double>(start - task.enqueued).count()
              : 0.0;
      observer->on_start(wait, depth);
    }
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    // Account the task before completing its future: once the submitter
    // has waited for it, the worker never touches the observer again, so
    // the submitter may uninstall and destroy it.
    if (observer != nullptr)
      observer->on_finish(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    if (error)
      task.done.set_exception(error);
    else
      task.done.set_value();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, size() * 4);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  const std::size_t grain = std::max<std::size_t>(1, n / chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([&, grain] {
      for (;;) {
        const std::size_t lo = next.fetch_add(grain);
        if (lo >= end) return;
        const std::size_t hi = std::min(end, lo + grain);
        try {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          return;
        }
      }
    }));
  }
  for (auto& f : futures) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace portatune
