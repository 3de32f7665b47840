#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace portatune {

namespace {

using Clock = std::chrono::steady_clock;

/// Seconds a task waited in the queue until `now`; 0 (unknown) when it was
/// enqueued with no observer installed and so carries no stamp.
double queue_wait(Clock::time_point enqueued, Clock::time_point now) {
  return enqueued.time_since_epoch().count() != 0
             ? std::chrono::duration<double>(now - enqueued).count()
             : 0.0;
}

}  // namespace

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

std::future<void> ThreadPool::enqueue(std::function<void()> fn,
                                      const void* owner) {
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  ThreadPoolObserver* const observer = thread_pool_observer();
  std::size_t depth;
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(QueuedTask{
        std::move(fn), std::move(done),
        observer != nullptr ? Clock::now() : Clock::time_point{},
        current_span_context(), current_cancellation_token(), owner});
    depth = queue_.size();
  }
  if (observer != nullptr) observer->on_submit(depth);
  cv_.notify_one();
  return fut;
}

void ThreadPool::withdraw(const void* owner) {
  ThreadPoolObserver* const observer = thread_pool_observer();
  std::vector<double> waits;  // filled only when observed
  std::size_t depth;
  {
    std::lock_guard lock(mutex_);
    const Clock::time_point now =
        observer != nullptr ? Clock::now() : Clock::time_point{};
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->owner != owner) {
        ++it;
        continue;
      }
      if (observer != nullptr) waits.push_back(queue_wait(it->enqueued, now));
      // Dropping the promise readies the helper's future.
      it = queue_.erase(it);
    }
    depth = queue_.size();
  }
  for (const double wait : waits) {
    observer->on_start(wait, depth);
    observer->on_finish(0.0);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    const std::size_t depth = queue_.size();
    lock.unlock();
    ThreadPoolObserver* const observer = thread_pool_observer();
    Clock::time_point start;
    if (observer != nullptr) {
      start = Clock::now();
      observer->on_start(queue_wait(task.enqueued, start), depth);
    }
    std::exception_ptr error;
    try {
      SpanScope scope(task.span);
      CancellationScope cancel_scope(task.cancel);
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    // Account the task before completing its future: once the submitter
    // has waited for it, the worker never touches the observer again, so
    // the submitter may uninstall and destroy it.
    if (observer != nullptr)
      observer->on_finish(
          std::chrono::duration<double>(Clock::now() - start).count());
    if (error)
      task.done.set_exception(error);
    else
      task.done.set_value();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t max_threads) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Capped by n so that 4 * width cannot overflow.
  const std::size_t width =
      max_threads != 0 ? std::min(max_threads, n) : size();
  const std::size_t chunks = std::min(n, 4 * width);
  const std::size_t participants =
      max_threads != 0 ? std::min(max_threads, size() + 1) : size() + 1;
  const std::size_t helpers = std::min(chunks, participants) - 1;
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t grain = n / chunks;
  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto drain = [&] {
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
  };
  // The loop's own counter names its helpers in the queue.
  std::vector<std::future<void>> joined;
  joined.reserve(helpers);
  const auto join = [&] {
    withdraw(&next);
    // Every future left belongs to a helper a worker already dequeued (a
    // withdrawn one is ready at once); it completes after on_finish.
    for (auto& f : joined) f.wait();
  };
  try {
    for (std::size_t h = 0; h < helpers; ++h)
      joined.push_back(enqueue([&drain] { drain(); }, &next));
  } catch (...) {
    join();  // the helpers already queued reference this frame
    throw;
  }
  drain();
  join();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace portatune
