#include "tuner/faults.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"
#include "tuner/sampler.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

QuadraticEvaluator backend() {
  return QuadraticEvaluator("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
}

TEST(FaultInjection, RejectsInvalidRates) {
  auto eval = backend();
  FaultProfile p;
  p.transient_rate = 1.5;
  EXPECT_THROW(FaultInjectingEvaluator(eval, p), Error);
  p = {};
  p.spike_factor = 0.5;
  EXPECT_THROW(FaultInjectingEvaluator(eval, p), Error);
}

TEST(FaultInjection, SameSeedSameFaultSchedule) {
  auto a = backend();
  auto b = backend();
  FaultProfile profile;
  profile.transient_rate = 0.2;
  profile.deterministic_rate = 0.1;
  profile.spike_rate = 0.1;
  profile.seed = 42;
  FaultInjectingEvaluator fa(a, profile);
  FaultInjectingEvaluator fb(b, profile);

  ConfigStream stream(a.space(), 7);
  for (int i = 0; i < 200; ++i) {
    const auto config = stream.next();
    ASSERT_TRUE(config.has_value());
    // Two calls per config so the per-config attempt counters advance.
    for (int rep = 0; rep < 2; ++rep) {
      const auto ra = fa.evaluate(*config);
      const auto rb = fb.evaluate(*config);
      EXPECT_EQ(ra.ok, rb.ok);
      EXPECT_EQ(ra.seconds, rb.seconds);
      EXPECT_EQ(ra.failure_kind, rb.failure_kind);
      EXPECT_EQ(ra.error, rb.error);
    }
  }
  EXPECT_EQ(fa.stats().transient_injected, fb.stats().transient_injected);
  EXPECT_GT(fa.stats().transient_injected, 0u);
  EXPECT_GT(fa.stats().deterministic_injected, 0u);
  EXPECT_GT(fa.stats().spikes_injected, 0u);
}

TEST(FaultInjection, TransientRateIsApproximatelyObserved) {
  auto eval = backend();
  FaultProfile profile;
  profile.transient_rate = 0.2;
  profile.seed = 3;
  FaultInjectingEvaluator faulty(eval, profile);

  ConfigStream stream(eval.space(), 11);
  std::size_t failures = 0;
  const std::size_t n = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto config = stream.next();
    ASSERT_TRUE(config.has_value());
    if (!faulty.evaluate(*config).ok) ++failures;
  }
  const double observed = static_cast<double>(failures) / n;
  EXPECT_GT(observed, 0.15);
  EXPECT_LT(observed, 0.25);
}

TEST(FaultInjection, DeterministicFailuresPersistPerConfig) {
  auto eval = backend();
  FaultProfile profile;
  profile.deterministic_rate = 0.3;
  profile.seed = 9;
  FaultInjectingEvaluator faulty(eval, profile);

  // Find one condemned and one healthy configuration.
  ConfigStream stream(eval.space(), 5);
  std::optional<ParamConfig> bad, good;
  while (!bad || !good) {
    auto c = stream.next();
    ASSERT_TRUE(c.has_value());
    (faulty.is_deterministically_failing(*c) ? bad : good) = *c;
  }

  for (int i = 0; i < 5; ++i) {
    const auto r = faulty.evaluate(*bad);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure_kind, FailureKind::Deterministic);
    EXPECT_TRUE(faulty.evaluate(*good).ok);
  }
}

TEST(FaultInjection, SpikesScaleTheMeasurement) {
  auto eval = backend();
  auto clean = backend();
  FaultProfile profile;
  profile.spike_rate = 1.0;
  profile.spike_factor = 10.0;
  FaultInjectingEvaluator faulty(eval, profile);

  const ParamConfig config{1, 2, 3, 4};
  const auto spiked = faulty.evaluate(config);
  const auto truth = clean.evaluate(config);
  ASSERT_TRUE(spiked.ok);
  EXPECT_DOUBLE_EQ(spiked.seconds, 10.0 * truth.seconds);
  EXPECT_EQ(faulty.stats().spikes_injected, 1u);
}

TEST(FaultInjection, DelaysBlockForRealTime) {
  auto eval = backend();
  FaultProfile profile;
  profile.delay_rate = 1.0;
  profile.delay_seconds = 0.02;
  FaultInjectingEvaluator faulty(eval, profile);

  const auto start = std::chrono::steady_clock::now();
  const auto r = faulty.evaluate({0, 0, 0, 0});
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(r.ok);  // a delay slows but does not fail the evaluation
  EXPECT_GE(waited, 0.02);
  EXPECT_EQ(faulty.stats().delays_injected, 1u);
}

TEST(FaultInjection, HangsParkOnTheAmbientTokenAndFailAsTimeout) {
  auto eval = backend();
  FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_stall_seconds = 30.0;  // would stall half a minute...
  FaultInjectingEvaluator faulty(eval, profile);

  CancellationSource cancel;
  cancel.request_cancel();  // ...but the token is already cancelled
  CancellationScope scope(cancel.token());
  const auto start = std::chrono::steady_clock::now();
  const auto r = faulty.evaluate({0, 0, 0, 0});
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, FailureKind::Timeout);
  EXPECT_LT(waited, 5.0);  // woken by the token, not the 30 s stall
  EXPECT_EQ(faulty.stats().hangs_injected, 1u);
}

TEST(FaultInjection, ParsesFaultSpecs) {
  // Historic spelling: a bare number is a transient rate.
  EXPECT_DOUBLE_EQ(parse_fault_spec("0.25").transient_rate, 0.25);

  const FaultProfile p = parse_fault_spec(
      "transient:0.1,det:0.05,hang:0.02,hang-stall:12,delay:0.5,"
      "delay-seconds:0.01,spike:0.2,spike-factor:4,seed:7");
  EXPECT_DOUBLE_EQ(p.transient_rate, 0.1);
  EXPECT_DOUBLE_EQ(p.deterministic_rate, 0.05);
  EXPECT_DOUBLE_EQ(p.hang_rate, 0.02);
  EXPECT_DOUBLE_EQ(p.hang_stall_seconds, 12.0);
  EXPECT_DOUBLE_EQ(p.delay_rate, 0.5);
  EXPECT_DOUBLE_EQ(p.delay_seconds, 0.01);
  EXPECT_DOUBLE_EQ(p.spike_rate, 0.2);
  EXPECT_DOUBLE_EQ(p.spike_factor, 4.0);
  EXPECT_EQ(p.seed, 7u);

  EXPECT_THROW(parse_fault_spec("bogus:1"), Error);
  EXPECT_THROW(parse_fault_spec("hang:not-a-number"), Error);
}

TEST(FaultInjection, ResilientEvaluatorRecoversInjectedTransients) {
  auto eval = backend();
  FaultProfile profile;
  profile.transient_rate = 0.15;
  profile.seed = 17;
  FaultInjectingEvaluator faulty(eval, profile);
  RetryPolicy policy;
  policy.max_attempts = 4;
  ResilientEvaluator resilient(faulty, policy);

  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 13;
  const auto trace = random_search(resilient, opt);
  EXPECT_EQ(trace.size(), 60u);  // the search still fills its budget
  EXPECT_GT(resilient.stats().retries, 0u);
  EXPECT_GT(trace.failure_stats().attempts, 60u);
  EXPECT_GT(trace.failure_stats().overhead_seconds, 0.0);
}

}  // namespace
}  // namespace portatune::tuner
