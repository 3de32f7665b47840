// Thread-pool telemetry: dormant by default, and publishing the pool.*
// instruments once a ThreadPoolMetrics observer is installed.
#include "obs/thread_pool_metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "support/thread_pool.hpp"

namespace portatune::obs {
namespace {

TEST(ThreadPoolMetrics, DormantByDefault) {
  EXPECT_EQ(thread_pool_observer(), nullptr);
  // A pool used with no observer must leave a fresh registry untouched.
  MetricsRegistry registry;
  {
    ThreadPool pool(2);
    pool.parallel_for(0, 32, [](std::size_t) {});
  }
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(ThreadPoolMetrics, PublishesPoolInstruments) {
  MetricsRegistry registry;
  {
    ScopedThreadPoolMetrics metrics(&registry);
    // One worker: its on_start/on_finish callbacks are serialized, so
    // the gauges have deterministic final values once the pool joins.
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { ran.fetch_add(1); }).wait();
    EXPECT_EQ(ran.load(), 8);
  }
  EXPECT_EQ(thread_pool_observer(), nullptr);  // scope uninstalled

  const auto snap = registry.snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(registry.counter("pool.tasks_submitted").value(), 8u);
  EXPECT_EQ(registry.counter("pool.tasks_completed").value(), 8u);
  EXPECT_EQ(registry.histogram("pool.queue_wait_seconds").count(), 8u);
  EXPECT_EQ(registry.histogram("pool.execute_seconds").count(), 8u);
  EXPECT_GE(registry.histogram("pool.queue_wait_seconds").min(), 0.0);
  // Occupancy settled back to zero; the queue never held more than the
  // single in-flight task (the submit-side gauge write races the
  // worker-side one, so only the bound is deterministic).
  EXPECT_EQ(registry.gauge("pool.workers_busy").value(), 0.0);
  EXPECT_LE(registry.gauge("pool.queue_depth").value(), 1.0);
}

TEST(ThreadPoolMetrics, ScopeRestoresThePreviousObserver) {
  MetricsRegistry outer_reg, inner_reg;
  ScopedThreadPoolMetrics outer(&outer_reg);
  ThreadPoolObserver* const installed = thread_pool_observer();
  ASSERT_NE(installed, nullptr);
  {
    ScopedThreadPoolMetrics inner(&inner_reg);
    EXPECT_NE(thread_pool_observer(), installed);
  }
  EXPECT_EQ(thread_pool_observer(), installed);
}

TEST(ThreadPoolMetrics, CountsEveryPoolInTheProcess) {
  // The observer is process-wide: two distinct pools both report to it.
  MetricsRegistry registry;
  ScopedThreadPoolMetrics metrics(&registry);
  {
    ThreadPool a(1), b(2);
    a.parallel_for(0, 4, [](std::size_t) {});
    b.parallel_for(0, 4, [](std::size_t) {});
    // Destroying the pools joins their workers before the counters are
    // read, whatever the order of a task's completion and its count.
  }
  EXPECT_EQ(registry.counter("pool.tasks_submitted").value(),
            registry.counter("pool.tasks_completed").value());
  EXPECT_GE(registry.counter("pool.tasks_completed").value(), 2u);
}

}  // namespace
}  // namespace portatune::obs
