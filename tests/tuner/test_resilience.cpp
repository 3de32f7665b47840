#include "tuner/resilience.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/faults.hpp"
#include "tuner/parallel.hpp"
#include "tuner/persistence.hpp"
#include "tuner/random_search.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

/// Fails the first `fail_first` attempts on every configuration with a
/// transient failure, then succeeds deterministically.
class FlakyEvaluator final : public Evaluator {
 public:
  explicit FlakyEvaluator(std::size_t fail_first)
      : space_(testing::grid_space(2, 6)), fail_first_(fail_first) {}

  const ParamSpace& space() const override { return space_; }

  EvalResult evaluate(const ParamConfig& config) override {
    ++calls_;
    const auto attempt = seen_[space_.config_hash(config)]++;
    if (attempt < fail_first_)
      return EvalResult::transient_failure("flaky attempt " +
                                           std::to_string(attempt));
    return {1.0 + config[0], true, {}};
  }

  std::string problem_name() const override { return "flaky"; }
  std::string machine_name() const override { return "F"; }

  std::size_t calls() const { return calls_; }

 private:
  ParamSpace space_;
  std::size_t fail_first_;
  std::size_t calls_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> seen_;
};

/// Sleeps for a fixed wall-clock duration on every evaluation.
class SleepyEvaluator final : public Evaluator {
 public:
  explicit SleepyEvaluator(double sleep_seconds)
      : space_(testing::grid_space(2, 6)), sleep_seconds_(sleep_seconds) {}

  const ParamSpace& space() const override { return space_; }

  EvalResult evaluate(const ParamConfig& config) override {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(sleep_seconds_));
    return {1.0 + config[0], true, {}};
  }

  std::string problem_name() const override { return "sleepy"; }
  std::string machine_name() const override { return "S"; }

 private:
  ParamSpace space_;
  double sleep_seconds_;
};

/// Sends configurations whose first parameter is 0 to `hanging`, every
/// other one to `healthy`; both evaluate the same space.
class RouteByFirstParam final : public Evaluator {
 public:
  RouteByFirstParam(Evaluator& hanging, Evaluator& healthy)
      : hanging_(hanging), healthy_(healthy) {}

  const ParamSpace& space() const override { return healthy_.space(); }
  EvalResult evaluate(const ParamConfig& config) override {
    return (config[0] == 0 ? hanging_ : healthy_).evaluate(config);
  }
  std::string problem_name() const override { return "routed"; }
  std::string machine_name() const override { return "R"; }

 private:
  Evaluator& hanging_;
  Evaluator& healthy_;
};

/// A 30 s cooperative hang on every configuration whose first parameter
/// is 0, behind a ResilientEvaluator with a `timeout` deadline.
struct HangingStack {
  explicit HangingStack(double timeout)
      : hanging(backend, hang_profile()),
        routed(hanging, backend),
        resilient(routed, policy(timeout)) {}

  static FaultProfile hang_profile() {
    FaultProfile p;
    p.hang_rate = 1.0;
    p.hang_stall_seconds = 30.0;
    return p;
  }
  static RetryPolicy policy(double timeout) {
    RetryPolicy p;
    p.max_attempts = 1;
    p.timeout_seconds = timeout;
    return p;
  }

  QuadraticEvaluator backend{"A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25}};
  FaultInjectingEvaluator hanging;
  RouteByFirstParam routed;
  ResilientEvaluator resilient;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(FailureBudget, ConsecutiveCounterResetsOnSuccess) {
  FailureBudgetTracker t({.max_consecutive = 3, .max_total = 100});
  const auto fail = EvalResult::failure("x");
  const EvalResult ok{1.0, true, {}};
  EXPECT_FALSE(t.note(fail));
  EXPECT_FALSE(t.note(fail));
  EXPECT_FALSE(t.note(ok));  // resets the streak
  EXPECT_FALSE(t.note(fail));
  EXPECT_FALSE(t.note(fail));
  EXPECT_TRUE(t.note(fail));  // third in a row
  EXPECT_TRUE(t.exhausted());
  EXPECT_NE(t.reason().find("consecutive"), std::string::npos);
}

TEST(FailureBudget, TotalCapTripsAcrossStreaks) {
  FailureBudgetTracker t({.max_consecutive = 100, .max_total = 4});
  const auto fail = EvalResult::failure("x");
  const EvalResult ok{1.0, true, {}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(t.note(fail));
    EXPECT_FALSE(t.note(ok));
  }
  EXPECT_TRUE(t.note(fail));
  EXPECT_NE(t.reason().find("total"), std::string::npos);
}

TEST(ResilientEvaluator, RetriesTransientFailuresUntilSuccess) {
  FlakyEvaluator flaky(2);  // first two attempts fail
  RetryPolicy policy;
  policy.max_attempts = 3;
  ResilientEvaluator resilient(flaky, policy);

  const auto r = resilient.evaluate({0, 0});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.failure_kind, FailureKind::None);
  EXPECT_GT(r.overhead_seconds, 0.0);  // backoff was charged
  EXPECT_EQ(flaky.calls(), 3u);
  EXPECT_EQ(resilient.stats().retries, 2u);
  EXPECT_EQ(resilient.stats().transient_failures, 2u);
  EXPECT_EQ(resilient.stats().successes, 1u);
  EXPECT_FALSE(resilient.is_quarantined({0, 0}));
}

TEST(ResilientEvaluator, BackoffGrowsExponentiallyAndIsCapped) {
  FlakyEvaluator flaky(3);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_initial = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max = 0.75;
  ResilientEvaluator resilient(flaky, policy);

  const auto r = resilient.evaluate({1, 1});
  EXPECT_TRUE(r.ok);
  // Charged 0.5, then min(1.0, .75), then min(2.0, .75).
  EXPECT_DOUBLE_EQ(r.overhead_seconds, 0.5 + 0.75 + 0.75);
  EXPECT_DOUBLE_EQ(resilient.stats().backoff_seconds, 2.0);
}

TEST(ResilientEvaluator, DeterministicFailureIsNotRetried) {
  QuadraticEvaluator eval("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  eval.fail_when = [](const ParamConfig& c) { return c[0] == 0; };
  ResilientEvaluator resilient(eval);

  const ParamConfig bad{0, 1, 2, 3};
  const auto r = resilient.evaluate(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, FailureKind::Deterministic);
  EXPECT_EQ(r.attempts, 1u);  // no retry
  EXPECT_EQ(eval.calls(), 1u);
  EXPECT_TRUE(resilient.is_quarantined(bad));

  // Second call is rejected by the quarantine without touching the backend.
  const auto r2 = resilient.evaluate(bad);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.attempts, 0u);
  EXPECT_EQ(eval.calls(), 1u);
  EXPECT_EQ(resilient.stats().quarantine_hits, 1u);
}

TEST(ResilientEvaluator, ExhaustedTransientRetriesQuarantine) {
  FlakyEvaluator flaky(100);  // never recovers
  RetryPolicy policy;
  policy.max_attempts = 2;
  ResilientEvaluator resilient(flaky, policy);

  const auto r = resilient.evaluate({2, 3});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, FailureKind::Transient);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_NE(r.error.find("after 2 attempts"), std::string::npos);
  EXPECT_TRUE(resilient.is_quarantined({2, 3}));
  EXPECT_EQ(flaky.calls(), 2u);
}

TEST(ResilientEvaluator, WatchdogTimesOutSlowEvaluations) {
  SleepyEvaluator sleepy(0.25);
  RetryPolicy policy;
  policy.timeout_seconds = 0.02;
  ResilientEvaluator resilient(sleepy, policy);

  const auto start = std::chrono::steady_clock::now();
  const auto r = resilient.evaluate({0, 1});
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, FailureKind::Timeout);
  EXPECT_DOUBLE_EQ(r.overhead_seconds, policy.timeout_seconds);
  EXPECT_LT(waited, 0.2);  // returned well before the sleep finished
  EXPECT_TRUE(resilient.is_quarantined({0, 1}));
  EXPECT_EQ(resilient.stats().timeouts, 1u);
}

TEST(ResilientEvaluator, DeadlineRescuesAHungEvaluation) {
  // A seeded hang would stall 30 s; the attempt's deadline token wakes it
  // at 50 ms, so the attempt pool (joined when the evaluator goes) is
  // free long before the stall would end.
  const auto start = std::chrono::steady_clock::now();
  {
    HangingStack stack(0.05);
    const EvalResult r = stack.resilient.evaluate({0, 0, 0, 0});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure_kind, FailureKind::Timeout);
  }
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(ResilientEvaluator, HangsBeyondThePoolWidthLeaveRoomForTheNext) {
  // Six hangs, more than the attempt pool's four workers: unless each
  // deadline also wakes its hang, every worker is still parked when the
  // healthy evaluation queues, and it times out too.
  HangingStack stack(0.5);
  for (int i = 0; i < 6; ++i) {
    const EvalResult r = stack.resilient.evaluate({0, i % 2, i / 2, 0});
    EXPECT_EQ(r.failure_kind, FailureKind::Timeout) << i;
  }
  const EvalResult healthy = stack.resilient.evaluate({3, 1, 2, 0});
  EXPECT_TRUE(healthy.ok) << healthy.error;
  EXPECT_EQ(stack.resilient.stats().timeouts, 6u);
}

TEST(ResilientEvaluator, ReportsEachDeadlineHangOnce) {
  // The caller that waits out a deadline reports the hang, once, before
  // evaluate() returns; an attempt back in time reports nothing.
  HangingStack stack(0.5);
  obs::MetricsRegistry in_time;
  {
    obs::ScopedMetricsRedirect redirect(in_time);
    EXPECT_TRUE(stack.resilient.evaluate({1, 0, 0, 0}).ok);
  }
  EXPECT_EQ(in_time.counter("eval.hang_detected").value(), 0u);

  obs::MetricsRegistry hung;
  {
    obs::ScopedMetricsRedirect redirect(hung);
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(stack.resilient.evaluate({0, 0, i, 0}).failure_kind,
                FailureKind::Timeout);
  }
  EXPECT_EQ(hung.counter("eval.hang_detected").value(), 3u);
}

TEST(ResilientEvaluator, SerialAndParallelTracesMatchUnderHangFaults) {
  // The determinism contract under hangs: the injected hang returns the
  // same Timeout failure whichever wake ends it, so a parallel window over
  // a timed resilient layer produces a trace bit-identical to the serial
  // one — only wall-clock time differs.
  const auto run = [](std::size_t threads) {
    QuadraticEvaluator backend("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
    FaultProfile profile;
    profile.hang_rate = 0.15;
    profile.hang_stall_seconds = 30.0;
    profile.seed = 21;
    FaultInjectingEvaluator faulty(backend, profile);
    RetryPolicy retry;
    retry.timeout_seconds = 0.2;  // ends every hang quickly
    ResilientEvaluator resilient(faulty, retry);
    ParallelOptions popt;
    popt.threads = threads;
    ParallelEvaluator par(resilient, popt);
    SearchOptions opt;
    opt.max_evals = 25;
    opt.seed = 5;
    return random_search(par, opt);
  };

  const SearchTrace serial = run(1);
  const SearchTrace parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.entry(i).config, parallel.entry(i).config);
    EXPECT_EQ(serial.entry(i).seconds, parallel.entry(i).seconds);
    EXPECT_EQ(serial.entry(i).draw_index, parallel.entry(i).draw_index);
  }
  EXPECT_EQ(serial.failure_stats().failures,
            parallel.failure_stats().failures);
  EXPECT_EQ(serial.failure_stats().timeouts,
            parallel.failure_stats().timeouts);
  EXPECT_GT(serial.failure_stats().timeouts, 0u);  // hangs actually fired
}

TEST(ResilientEvaluator, QuarantineHashesRoundTrip) {
  QuadraticEvaluator eval("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  eval.fail_when = [](const ParamConfig& c) { return c[0] < 2; };
  ResilientEvaluator resilient(eval);
  resilient.evaluate({0, 0, 0, 0});
  resilient.evaluate({1, 0, 0, 0});
  const auto hashes = resilient.quarantined_hashes();
  EXPECT_EQ(hashes.size(), 2u);

  QuadraticEvaluator eval2("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  ResilientEvaluator fresh(eval2);
  fresh.restore_quarantine(hashes);
  EXPECT_TRUE(fresh.is_quarantined({0, 0, 0, 0}));
  EXPECT_TRUE(fresh.is_quarantined({1, 0, 0, 0}));
  EXPECT_FALSE(fresh.is_quarantined({5, 0, 0, 0}));
}

TEST(FailureAwareSearch, DeadEvaluatorStopsWithDiagnostic) {
  QuadraticEvaluator eval("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  eval.fail_when = [](const ParamConfig&) { return true; };
  SearchOptions opt;
  opt.max_evals = 500;
  opt.seed = 1;
  opt.failure_budget = {.max_consecutive = 10, .max_total = 100};
  const auto trace = random_search(eval, opt);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(eval.calls(), 10u);  // stopped at the consecutive cap
  EXPECT_NE(trace.stop_reason().find("failure budget"), std::string::npos);
  EXPECT_EQ(trace.failure_stats().failures, 10u);
}

TEST(FailureAwareSearch, TraceAccountsAttemptsAndOverhead) {
  FlakyEvaluator flaky(1);  // every config needs exactly one retry
  RetryPolicy policy;
  policy.max_attempts = 3;
  ResilientEvaluator resilient(flaky, policy);
  SearchOptions opt;
  opt.max_evals = 8;
  opt.seed = 1;
  const auto trace = random_search(resilient, opt);
  ASSERT_EQ(trace.size(), 8u);
  const auto& fs = trace.failure_stats();
  EXPECT_EQ(fs.attempts, 16u);  // 2 attempts per evaluation
  EXPECT_EQ(fs.failures, 0u);   // the retries recovered every one
  EXPECT_GT(fs.overhead_seconds, 0.0);
  // The backoff overhead advanced the search clock past the sum of the
  // measured run times.
  double sum = 0.0;
  for (const auto& e : trace.entries()) sum += e.seconds;
  EXPECT_GT(trace.total_time(), sum);
}

TEST(Checkpoint, ResumedSearchMatchesUninterruptedRun) {
  const auto run = [](const SearchCheckpoint* resume, SearchCheckpoint* mid) {
    QuadraticEvaluator eval("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
    eval.fail_when = [](const ParamConfig& c) { return c[1] == 3; };
    ResilientEvaluator resilient(eval);
    SearchOptions opt;
    opt.max_evals = 50;
    opt.seed = 99;
    opt.resume = resume;
    if (mid != nullptr) {
      opt.checkpoint_every = 1;
      opt.on_checkpoint = [mid](const SearchCheckpoint& snapshot) {
        if (snapshot.trace.size() == 30 && mid->trace.empty())
          *mid = snapshot;
      };
    }
    return random_search(resilient, opt);
  };

  SearchCheckpoint mid;
  const auto full = run(nullptr, &mid);
  ASSERT_EQ(full.size(), 50u);
  ASSERT_EQ(mid.trace.size(), 30u);
  EXPECT_FALSE(mid.quarantine.empty());  // some c[1]==3 configs were drawn

  // Round-trip the snapshot through the CSV serialization.
  const auto space = testing::grid_space(4);
  std::stringstream ss;
  save_checkpoint_csv(ss, mid, space);
  const auto loaded = load_checkpoint_csv(ss, space);
  EXPECT_EQ(loaded.draws, mid.draws);
  EXPECT_EQ(loaded.quarantine, mid.quarantine);
  ASSERT_EQ(loaded.trace.size(), mid.trace.size());
  EXPECT_EQ(loaded.trace.total_time(), mid.trace.total_time());
  EXPECT_EQ(loaded.trace.failure_stats().attempts,
            mid.trace.failure_stats().attempts);

  // Resuming from the loaded snapshot reproduces the uninterrupted run
  // exactly: same configurations, run times, clock, and failure stats.
  const auto resumed = run(&loaded, nullptr);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed.entry(i).config, full.entry(i).config) << i;
    EXPECT_EQ(resumed.entry(i).seconds, full.entry(i).seconds) << i;
    EXPECT_EQ(resumed.entry(i).elapsed, full.entry(i).elapsed) << i;
    EXPECT_EQ(resumed.entry(i).draw_index, full.entry(i).draw_index) << i;
  }
  EXPECT_EQ(resumed.total_time(), full.total_time());
  EXPECT_EQ(resumed.failure_stats().failures,
            full.failure_stats().failures);
  EXPECT_EQ(resumed.best_seconds(), full.best_seconds());
}

TEST(Checkpoint, ResumeRestoresTheFailureBudget) {
  // The straight run aborts on its total-failure cap; a run resumed from
  // a mid-flight checkpoint must abort at the identical point, not get a
  // fresh budget.
  const FailureBudget budget{.max_consecutive = 1000, .max_total = 25};
  const auto run = [&](const SearchCheckpoint* resume,
                       SearchCheckpoint* mid) {
    QuadraticEvaluator eval("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
    eval.fail_when = [](const ParamConfig& c) { return c[0] % 3 == 0; };
    SearchOptions opt;
    opt.max_evals = 500;
    opt.seed = 5;
    opt.failure_budget = budget;
    opt.resume = resume;
    if (mid != nullptr) {
      opt.checkpoint_every = 1;
      opt.on_checkpoint = [mid](const SearchCheckpoint& snapshot) {
        if (snapshot.trace.size() == 20 && mid->trace.empty())
          *mid = snapshot;
      };
    }
    return random_search(eval, opt);
  };

  SearchCheckpoint mid;
  const auto full = run(nullptr, &mid);
  ASSERT_EQ(full.failure_stats().failures, 25u);
  ASSERT_FALSE(full.stop_reason().empty());
  ASSERT_EQ(mid.trace.size(), 20u);
  ASSERT_GT(mid.trace.failure_stats().failures, 0u);

  const auto resumed = run(&mid, nullptr);
  EXPECT_EQ(resumed.size(), full.size());
  EXPECT_EQ(resumed.failure_stats().failures, 25u);
  EXPECT_EQ(resumed.stop_reason(), full.stop_reason());
  EXPECT_EQ(resumed.entries().back().config, full.entries().back().config);

  // Resuming the aborted run's own final state evaluates nothing more.
  SearchCheckpoint done;
  done.trace = full;
  done.draws = 10000;  // irrelevant: the budget gate trips first
  const auto stuck = run(&done, nullptr);
  EXPECT_EQ(stuck.size(), full.size());
}

TEST(Checkpoint, LoaderRejectsCorruptInput) {
  const auto space = testing::grid_space(4);
  std::stringstream not_a_checkpoint("# portatune-trace v1,RS,q,A\n");
  EXPECT_THROW(load_checkpoint_csv(not_a_checkpoint, space), Error);

  // Checksummed like a real file, so only the space is wrong.
  std::stringstream wrong_space(append_checksum_footer(
      "# portatune-checkpoint v3,RS,q,A\n"
      "# draws,5\n"
      "bogus,seconds,elapsed,draw_index,wall_unix\n"));
  try {
    load_checkpoint_csv(wrong_space, space);
    FAIL() << "checkpoint over the wrong space loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match the parameter space"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace portatune::tuner
