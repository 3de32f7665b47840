// Satellite coverage for the observability PR: wall-clock timestamps on
// trace entries, their persistence, failure statistics round-trips, and
// overhead/elapsed clock interaction.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/event.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/persistence.hpp"
#include "tuner/random_search.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

TEST(TraceWallClock, RecordStampsEntries) {
  const double before = obs::wall_unix_now();
  SearchTrace trace("RS", "p", "m");
  trace.record({0, 0, 0, 0}, 1.0, 0);
  const double after = obs::wall_unix_now();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_GE(trace.entry(0).wall_unix, before);
  EXPECT_LE(trace.entry(0).wall_unix, after);
}

TEST(TraceWallClock, ExplicitTimestampPassesThrough) {
  SearchTrace trace("RS", "p", "m");
  trace.record({0, 0, 0, 0}, 1.0, 0, 12345.5);
  EXPECT_DOUBLE_EQ(trace.entry(0).wall_unix, 12345.5);
}

TEST(TraceWallClock, TraceCsvRoundTripsTimestamps) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchOptions opt;
  opt.max_evals = 8;
  opt.seed = 3;
  const auto original = random_search(eval, opt);
  ASSERT_GT(original.entry(0).wall_unix, 0.0);

  std::stringstream buf;
  save_trace_csv(buf, original, eval.space());
  const auto loaded = load_trace_csv(buf, eval.space());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_DOUBLE_EQ(loaded.entry(i).wall_unix,
                     original.entry(i).wall_unix);
}

TEST(FailureStatsPersistence, RoundTripsNonZeroCounts) {
  // A checkpoint of a search that saw every failure kind must restore
  // the exact counters (the CSV stats row carries all six values).
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchCheckpoint original;
  original.trace = SearchTrace("RS", "quadratic", "M");
  original.trace.record({1, 2, 3, 4}, 1.5, 0);
  original.draws = 9;

  FailureStats fs;
  fs.attempts = 12;
  fs.failures = 6;
  fs.transient = 3;
  fs.deterministic = 2;
  fs.timeouts = 1;
  fs.overhead_seconds = 0.375;
  original.trace.restore_failure_stats(fs);

  std::stringstream buf;
  save_checkpoint_csv(buf, original, eval.space());
  const auto loaded = load_checkpoint_csv(buf, eval.space());
  const FailureStats& got = loaded.trace.failure_stats();
  EXPECT_EQ(got.attempts, 12u);
  EXPECT_EQ(got.failures, 6u);
  EXPECT_EQ(got.transient, 3u);
  EXPECT_EQ(got.deterministic, 2u);
  EXPECT_EQ(got.timeouts, 1u);
  EXPECT_DOUBLE_EQ(got.overhead_seconds, 0.375);
}

TEST(FailureStatsPersistence, CheckpointRoundTripsWallClock) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchCheckpoint original;
  original.trace = SearchTrace("RS", "quadratic", "M");
  original.trace.record({1, 2, 3, 4}, 1.5, 0, 1700000000.25);
  original.draws = 1;

  std::stringstream buf;
  save_checkpoint_csv(buf, original, eval.space());
  const auto loaded = load_checkpoint_csv(buf, eval.space());
  ASSERT_EQ(loaded.trace.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.trace.entry(0).wall_unix, 1700000000.25);
}

TEST(TraceClock, OverheadAdvancesElapsedMonotonically) {
  // add_overhead() charges search time between evaluations; recorded
  // entries must observe it: elapsed stays strictly increasing and
  // includes every charge made so far.
  SearchTrace trace("RS", "p", "m");
  trace.record({0, 0, 0, 0}, 1.0, 0);
  EXPECT_DOUBLE_EQ(trace.entry(0).elapsed, 1.0);

  trace.add_overhead(0.5);  // e.g. pruned draws, model fitting
  trace.record({1, 1, 1, 1}, 2.0, 1);
  EXPECT_DOUBLE_EQ(trace.entry(1).elapsed, 3.5);

  trace.add_overhead(0.25);
  trace.record({2, 2, 2, 2}, 0.5, 2);
  EXPECT_DOUBLE_EQ(trace.entry(2).elapsed, 4.25);

  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GT(trace.entry(i).elapsed, trace.entry(i - 1).elapsed);
  EXPECT_DOUBLE_EQ(trace.total_time(), 4.25);
}

TEST(TraceClock, TrailingOverheadCountsTowardTotalTimeOnly) {
  SearchTrace trace("RS", "p", "m");
  trace.record({0, 0, 0, 0}, 1.0, 0);
  trace.add_overhead(2.0);  // failures after the last success
  EXPECT_DOUBLE_EQ(trace.entry(0).elapsed, 1.0);
  EXPECT_DOUBLE_EQ(trace.total_time(), 3.0);
}

}  // namespace
}  // namespace portatune::tuner
