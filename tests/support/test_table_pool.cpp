#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/thread_pool_metrics.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace portatune {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os, "Title");
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable(std::vector<std::string>{}), Error);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num_or_dash(1.0, 2), "1.00");
  EXPECT_EQ(TextTable::num_or_dash(
                std::numeric_limits<double>::infinity()),
            "-");
  EXPECT_EQ(TextTable::num_or_dash(std::nan("")), "-");
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3) throw Error("boom");
                                 }),
               Error);
}

/// Run `f` on a thread of its own and wait up to `limit` for it; false on
/// timeout, in which case the thread is abandoned where it hangs, so `f`
/// may only touch what it owns or what the caller leaks.
bool finishes_within(std::chrono::seconds limit, std::function<void()> f) {
  std::packaged_task<void()> task(std::move(f));
  std::future<void> finished = task.get_future();
  std::thread runner(std::move(task));
  if (finished.wait_for(limit) != std::future_status::ready) {
    runner.detach();  // deadlocked: it can never be joined
    return false;
  }
  runner.join();
  finished.get();  // rethrows what f threw
  return true;
}

TEST(ThreadPool, NestedParallelForFromEveryWorkerCompletes) {
  // Both workers of a 2-worker pool start a loop nested three deep, so
  // every caller is a busy worker: a caller that waited for its queued
  // helpers would wait forever.
  auto pool = std::make_unique<ThreadPool>(2);
  ThreadPool* const p = pool.get();
  auto leaves = std::make_shared<std::atomic<int>>(0);
  const bool finished =
      finishes_within(std::chrono::seconds(20), [p, leaves] {
        std::atomic<std::size_t> started{0};
        std::vector<std::future<void>> roots;
        for (std::size_t w = 0; w < p->size(); ++w)
          roots.push_back(p->submit([p, leaves, &started] {
            started.fetch_add(1);
            while (started.load() < p->size()) std::this_thread::yield();
            p->parallel_for(0, 4, [&](std::size_t) {
              p->parallel_for(0, 4, [&](std::size_t) {
                p->parallel_for(0, 4,
                                [&](std::size_t) { leaves->fetch_add(1); });
              });
            });
          }));
        for (auto& r : roots) r.get();
      });
  if (!finished) {
    (void)pool.release();  // its workers hang: never join them
    FAIL() << "nested parallel_for did not finish within 20 s";
  }
  EXPECT_EQ(leaves->load(), 2 * 4 * 4 * 4);
}

TEST(ThreadPool, ObserverMayBeDestroyedOnceParallelForReturns) {
  // Every worker is held, so the caller drains the loop alone while its
  // helpers sit in the queue. The observer is uninstalled and destroyed
  // as soon as parallel_for returns, and only then are the workers let
  // go: no helper may be left to report to it.
  struct Hold {
    std::atomic<std::size_t> held{0};
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
  };
  auto pool = std::make_unique<ThreadPool>(2);
  auto registry = std::make_unique<obs::MetricsRegistry>();
  auto metrics = std::make_unique<obs::ThreadPoolMetrics>(registry.get());
  auto hold = std::make_shared<Hold>();
  std::vector<std::future<void>> holds;
  for (std::size_t w = 0; w < pool->size(); ++w)
    holds.push_back(pool->submit([hold] {
      hold->held.fetch_add(1);
      hold->released.wait();
    }));
  while (hold->held.load() < pool->size()) std::this_thread::yield();

  set_thread_pool_observer(metrics.get());
  ThreadPool* const p = pool.get();
  auto ran = std::make_shared<std::atomic<int>>(0);
  const bool finished = finishes_within(std::chrono::seconds(20), [p, ran] {
    p->parallel_for(0, 64, [&](std::size_t) { ran->fetch_add(1); });
  });
  set_thread_pool_observer(nullptr);
  if (!finished) {
    // The caller waits on helpers that cannot start: leak all they use.
    (void)pool.release();
    (void)metrics.release();
    (void)registry.release();
    FAIL() << "parallel_for waited for helpers held out of the pool";
  }
  metrics.reset();
  hold->release.set_value();
  for (auto& h : holds) h.get();
  pool.reset();
  EXPECT_EQ(ran->load(), 64);
  const std::uint64_t submitted =
      registry->counter("pool.tasks_submitted").value();
  EXPECT_GT(submitted, 0u);
  EXPECT_EQ(submitted, registry->counter("pool.tasks_completed").value());
  EXPECT_EQ(registry->histogram("pool.queue_wait_seconds").count(),
            submitted);
  EXPECT_EQ(registry->gauge("pool.workers_busy").value(), 0.0);
}

TEST(ThreadPool, ParallelForCapsItsParticipants) {
  ThreadPool pool(4);
  for (const std::size_t cap : {1, 2, 3, 0}) {
    std::atomic<int> active{0}, peak{0};
    pool.parallel_for(
        0, 48,
        [&](std::size_t) {
          const int now = active.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          active.fetch_sub(1);
        },
        cap);
    const std::size_t limit = cap != 0 ? cap : pool.size() + 1;
    EXPECT_LE(static_cast<std::size_t>(peak.load()), limit)
        << "max_threads " << cap;
  }
}

TEST(ThreadPool, ParallelForRethrowsFromCallerAndHelperChunks) {
  // Two one-index chunks and one helper: the side told to throw does so,
  // the other waits (bounded) until it has, so each side runs a chunk.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (const bool caller_throws : {true, false}) {
    std::atomic<bool> thrown{false};
    const auto body = [&](std::size_t) {
      if ((std::this_thread::get_id() == caller) == caller_throws) {
        thrown.store(true);
        throw std::runtime_error(caller_throws ? "caller" : "helper");
      }
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!thrown.load() && std::chrono::steady_clock::now() < give_up)
        std::this_thread::yield();
    };
    try {
      pool.parallel_for(0, 2, body);
      ADD_FAILURE() << "no exception from the "
                    << (caller_throws ? "caller's" : "helper's") << " chunk";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), caller_throws ? "caller" : "helper");
    }
  }
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(2);
  std::atomic<int> v{0};
  auto f = pool.submit([&] { v = 42; });
  f.wait();
  EXPECT_EQ(v.load(), 42);
}

TEST(ThreadPool, GlobalIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(WallTimer, MeasuresForwardTime) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b + 1.0);
}

}  // namespace
}  // namespace portatune
