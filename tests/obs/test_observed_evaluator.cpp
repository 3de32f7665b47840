#include "obs/observed_evaluator.hpp"

#include <gtest/gtest.h>

#include "obs/sink.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/faults.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"

namespace portatune::obs {
namespace {

using tuner::testing::QuadraticEvaluator;

TEST(ObservedEvaluator, CountsSuccessesAndLatency) {
  QuadraticEvaluator backend("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  MetricsRegistry reg;
  ObservedEvaluator observed(backend, "eval", &reg);

  const auto r = observed.evaluate({1, 2, 3, 4});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(reg.counter("eval.calls").value(), 1u);
  EXPECT_EQ(reg.counter("eval.failures").value(), 0u);
  EXPECT_EQ(reg.histogram("eval.seconds").count(), 1u);
  EXPECT_EQ(reg.histogram("eval.latency_seconds").count(), 1u);
  EXPECT_DOUBLE_EQ(reg.histogram("eval.seconds").sum(), r.seconds);
}

TEST(ObservedEvaluator, ClassifiesInjectedFaults) {
  // Compose with the fault injector: the observer must see and classify
  // every injected failure by kind.
  QuadraticEvaluator backend("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  tuner::FaultProfile profile;
  profile.transient_rate = 1.0;  // every attempt fails transiently
  tuner::FaultInjectingEvaluator faulty(backend, profile);
  MetricsRegistry reg;
  ObservedEvaluator observed(faulty, "eval", &reg);

  MemorySink sink;
  ScopedSinkRedirect redirect(&sink, Severity::Debug);
  const auto r = observed.evaluate({1, 2, 3, 4});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(reg.counter("eval.failures").value(), 1u);
  EXPECT_EQ(reg.counter("eval.failures.transient").value(), 1u);
  EXPECT_EQ(reg.counter("eval.failures.deterministic").value(), 0u);
  EXPECT_EQ(reg.histogram("eval.seconds").count(), 0u);  // no run time

  // One event per attempt, Warn (failures log a level up), FailureKind
  // riding along in the fields.
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "eval");
  EXPECT_EQ(events[0].severity, Severity::Warn);
  bool saw_kind = false;
  for (const auto& f : events[0].fields)
    if (f.key == "kind" && f.value == "transient") saw_kind = true;
  EXPECT_TRUE(saw_kind);
}

TEST(ObservedEvaluator, SeesEachAttemptInsideTheResilientStack) {
  // backend -> faults -> observer -> retry: the observer logs one event
  // per raw attempt, so retries show up as multiple events.
  QuadraticEvaluator backend("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  tuner::FaultProfile profile;
  profile.transient_rate = 1.0;
  tuner::FaultInjectingEvaluator faulty(backend, profile);
  MetricsRegistry reg;
  ObservedEvaluator observed(faulty, "eval", &reg);
  tuner::RetryPolicy policy;
  policy.max_attempts = 3;
  tuner::ResilientEvaluator resilient(observed, policy);

  MemorySink sink;
  ScopedSinkRedirect redirect(&sink, Severity::Debug);
  const auto r = resilient.evaluate({1, 2, 3, 4});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(reg.counter("eval.calls").value(), 3u);  // one per attempt

  // Three attempt events plus the retry-chain span they nest under —
  // every retry nests under the one chain.
  std::uint64_t chain_span = 0;
  std::size_t attempts = 0;
  for (const auto& e : sink.events())
    if (e.name == "resilient.call") chain_span = e.span_id;
  ASSERT_NE(chain_span, 0u);
  for (const auto& e : sink.events())
    if (e.name == "eval") {
      ++attempts;
      EXPECT_EQ(e.parent_span_id, chain_span);
    }
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(sink.size(), 4u);
}

TEST(ObservedEvaluator, SearchAbortFlushesTheEventLog) {
  // A fault-injected search that exhausts its failure budget must leave a
  // Warn "search.abort" event in the (flushed) sink, so a truncated run
  // still explains why it stopped.
  QuadraticEvaluator backend("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  tuner::FaultProfile profile;
  profile.transient_rate = 1.0;  // dead machine: every attempt fails
  tuner::FaultInjectingEvaluator faulty(backend, profile);
  MetricsRegistry reg;
  ObservedEvaluator observed(faulty, "eval", &reg);

  MemorySink sink;
  ScopedSinkRedirect redirect(&sink, Severity::Warn);
  tuner::SearchOptions opt;
  opt.max_evals = 100;
  opt.seed = 7;
  opt.failure_budget.max_consecutive = 5;
  const auto trace = tuner::random_search(observed, opt);

  ASSERT_FALSE(trace.stop_reason().empty());
  bool saw_abort = false;
  for (const auto& e : sink.events())
    if (e.name == "search.abort") {
      saw_abort = true;
      EXPECT_EQ(e.severity, Severity::Warn);
      bool saw_reason = false;
      for (const auto& f : e.fields)
        if (f.key == "reason" && f.value == trace.stop_reason())
          saw_reason = true;
      EXPECT_TRUE(saw_reason);
    }
  EXPECT_TRUE(saw_abort);
}

TEST(ObservedEvaluator, RestoredStopReasonDoesNotReAnnounce) {
  // Loading a checkpoint of an aborted search restores the reason quietly.
  MemorySink sink;
  ScopedSinkRedirect redirect(&sink, Severity::Debug);
  tuner::SearchTrace trace("RS", "p", "m");
  trace.restore_stop_reason("failure budget exhausted");
  EXPECT_EQ(trace.stop_reason(), "failure budget exhausted");
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace portatune::obs
