#include "tuner/watchdog.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "support/cancellation.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/faults.hpp"
#include "tuner/parallel.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

double elapsed_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(EvalWatchdog, DisarmedTicketNeverFires) {
  EvalWatchdog& dog = EvalWatchdog::global();
  const auto before = dog.hangs_detected();
  CancellationSource source;
  {
    EvalWatchdog::Ticket ticket = dog.watch(source, 0.01, "disarm-test");
    ticket.disarm();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(dog.hangs_detected(), before);
  EXPECT_FALSE(source.cancel_requested());
}

TEST(EvalWatchdog, MonitorCancelsAndReportsAtDeadline) {
  EvalWatchdog& dog = EvalWatchdog::global();
  const auto before = dog.hangs_detected();
  CancellationSource source;
  EvalWatchdog::Ticket ticket = dog.watch(source, 0.02, "deadline-test");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(source.token().wait_for(30.0));  // woken by the monitor
  EXPECT_LT(elapsed_since(start), 5.0);
  EXPECT_EQ(dog.hangs_detected(), before + 1);
  // The deadline already fired: expire() must not double-report.
  ticket.expire();
  EXPECT_EQ(dog.hangs_detected(), before + 1);
}

TEST(EvalWatchdog, ExpireReportsExactlyOnce) {
  EvalWatchdog& dog = EvalWatchdog::global();
  const auto before = dog.hangs_detected();
  CancellationSource source;
  EvalWatchdog::Ticket ticket = dog.watch(source, 60.0, "expire-test");
  ticket.expire();  // caller-side deadline hit first
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_EQ(dog.hangs_detected(), before + 1);
}

TEST(EvalWatchdog, ResilientDeadlineRescuesAHungEvaluation) {
  // A seeded hang would stall 30 s; the resilient layer's 50 ms deadline
  // (registered with the watchdog) wakes it and classifies Timeout.
  QuadraticEvaluator backend("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_stall_seconds = 30.0;
  FaultInjectingEvaluator faulty(backend, profile);
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.timeout_seconds = 0.05;
  ResilientEvaluator resilient(faulty, policy);

  EvalWatchdog& dog = EvalWatchdog::global();
  const auto before = dog.hangs_detected();
  const auto start = std::chrono::steady_clock::now();
  const EvalResult r = resilient.evaluate({0, 0, 0, 0});
  EXPECT_LT(elapsed_since(start), 10.0);  // nowhere near the 30 s stall
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, FailureKind::Timeout);
  EXPECT_GE(dog.hangs_detected(), before + 1);
}

TEST(EvalWatchdog, SerialAndParallelTracesMatchUnderHangFaults) {
  // The determinism contract under hangs: the injected hang returns the
  // same Timeout failure whether the watchdog woke it early or not, so a
  // parallel window with a deadline produces a trace bit-identical to the
  // serial one — only wall-clock time differs.
  const auto run = [](std::size_t threads) {
    QuadraticEvaluator backend("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
    FaultProfile profile;
    profile.hang_rate = 0.15;
    profile.hang_stall_seconds = 30.0;
    profile.seed = 21;
    FaultInjectingEvaluator faulty(backend, profile);
    ParallelOptions popt;
    popt.threads = threads;
    popt.eval_deadline_seconds = 0.05;  // rescue every hang quickly
    ParallelEvaluator par(faulty, popt);
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

TEST(Cancellation, ParallelBatchReturnsCleanPrefixWhenCancelled) {
  QuadraticEvaluator backend("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  CancellationSource cancel;
  cancel.request_cancel();
  ParallelOptions popt;
  popt.threads = 4;
  popt.cancel = cancel.token();
  ParallelEvaluator par(backend, popt);
  std::vector<ParamConfig> batch(8, ParamConfig{0, 0, 0, 0});
  // Already cancelled: no evaluation starts, the prefix is empty.
  EXPECT_TRUE(par.evaluate_batch(batch).empty());
}

TEST(Cancellation, SearchStopsAtWindowBoundaryAndResumes) {
  // A cancelled search records the cancellation stop reason; resuming the
  // checkpoint with a fresh (uncancelled) option set clears it and
  // completes with results identical to an uninterrupted run.
  QuadraticEvaluator uninterrupted("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  SearchOptions opt;
  opt.max_evals = 30;
  opt.seed = 11;
  const SearchTrace reference = random_search(uninterrupted, opt);

  QuadraticEvaluator first("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  CancellationSource cancel;
  SearchCheckpoint snapshot;
  SearchOptions interrupted = opt;
  interrupted.cancel = cancel.token();
  interrupted.checkpoint_every = 5;
  interrupted.on_checkpoint = [&](const SearchCheckpoint& s) {
    snapshot = s;
    if (s.trace.size() >= 10) cancel.request_cancel();
  };
  const SearchTrace partial = random_search(first, interrupted);
  ASSERT_EQ(partial.stop_reason(), kCancelledStopReason);
  ASSERT_LT(partial.size(), reference.size());
  ASSERT_GE(snapshot.trace.size(), partial.size());  // final checkpoint

  QuadraticEvaluator second("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
  SearchOptions resume = opt;
  resume.resume = &snapshot;
  const SearchTrace completed = random_search(second, resume);
  EXPECT_TRUE(completed.stop_reason().empty());
  ASSERT_EQ(completed.size(), reference.size());
  for (std::size_t i = 0; i < completed.size(); ++i) {
    EXPECT_EQ(completed.entry(i).config, reference.entry(i).config);
    EXPECT_EQ(completed.entry(i).seconds, reference.entry(i).seconds);
    EXPECT_EQ(completed.entry(i).draw_index, reference.entry(i).draw_index);
  }
}

}  // namespace
}  // namespace portatune::tuner
