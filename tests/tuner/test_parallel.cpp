// Batched evaluation + parallel fan-out: the contracts the search layer
// depends on.
//
//   * Evaluator::evaluate_batch default == a loop of evaluate() calls.
//   * ParallelEvaluator keeps batch order regardless of completion order
//     and degrades to serial when the inner backend is not thread-safe.
//   * Serial-vs-parallel determinism parity: the same seed produces a
//     byte-identical canonical CSV for RS / RS_p / RS_b, the replay, and the
//     model-free controls RS_pf / RS_bf at any thread count,
//     including under fault injection, retry, quarantine, failure-budget
//     aborts, and checkpoint/resume.
//   * ResilientEvaluator's quarantine stays exact under concurrent
//     hammering from many threads.
//   * run_transfer_experiments returns the same results at any fan-out.
#include "tuner/parallel.hpp"

#include <gtest/gtest.h>


#include "ml/forest.hpp"
#include "support/thread_pool.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/experiment.hpp"
#include "tuner/faults.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"
#include "tuner/sampler.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;
using testing::canonical_csv;

QuadraticEvaluator machine_a() {
  return QuadraticEvaluator("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
}
QuadraticEvaluator machine_b() {
  return QuadraticEvaluator("B", {7, 2, 5, 1}, {1.2, 0.4, 1.8, 0.3}, 2.0);
}

/// A backend that keeps every default: not thread-safe, batch width 1,
/// no inner layer.
class MinimalEvaluator final : public Evaluator {
 public:
  MinimalEvaluator() : space_(testing::grid_space(2, 4)) {}
  const ParamSpace& space() const override { return space_; }
  EvalResult evaluate(const ParamConfig& c) override {
    return EvalResult::success(1.0 + static_cast<double>(c[0]));
  }
  std::string problem_name() const override { return "minimal"; }
  std::string machine_name() const override { return "M"; }

 private:
  ParamSpace space_;
};

std::vector<ParamConfig> draw_configs(const ParamSpace& space,
                                      std::size_t count,
                                      std::uint64_t seed = 99) {
  ConfigStream stream(space, seed);
  std::vector<ParamConfig> out;
  while (out.size() < count)
    if (auto c = stream.next()) out.push_back(*c);
  return out;
}

// ---------------------------------------------------------------------
// Batch interface contracts
// ---------------------------------------------------------------------

TEST(EvaluateBatch, DefaultFallbackMatchesSerialLoop) {
  auto eval = machine_a();
  const auto configs = draw_configs(eval.space(), 12);
  const auto batch = eval.evaluate_batch(configs);
  ASSERT_EQ(batch.size(), configs.size());
  auto ref = machine_a();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto one = ref.evaluate(configs[i]);
    EXPECT_EQ(batch[i].ok, one.ok);
    EXPECT_DOUBLE_EQ(batch[i].seconds, one.seconds);
  }
  EXPECT_EQ(eval.calls(), configs.size());
}

TEST(EvaluateBatch, DefaultCapabilitiesAreSerial) {
  MinimalEvaluator eval;
  const auto caps = eval.capabilities();
  EXPECT_FALSE(caps.thread_safe);
  EXPECT_EQ(caps.preferred_batch, 1u);
  EXPECT_EQ(eval.inner_evaluator(), nullptr);
}

TEST(ParallelEvaluator, KeepsBatchOrderUnderFanOut) {
  auto serial = machine_a();
  auto backend = machine_a();
  ParallelEvaluator par(backend, {.threads = 4, .batch_width = 0});
  EXPECT_EQ(par.threads(), 4u);

  const auto configs = draw_configs(serial.space(), 64);
  const auto got = par.evaluate_batch(configs);
  ASSERT_EQ(got.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i].seconds, serial.evaluate(configs[i]).seconds)
        << "result " << i << " does not correspond to batch[" << i << "]";
}

TEST(ParallelEvaluator, SerialInnerDisablesFanOut) {
  MinimalEvaluator backend;  // thread_safe == false
  ParallelEvaluator par(backend, {.threads = 8});
  EXPECT_EQ(par.threads(), 1u);
  const auto configs = draw_configs(backend.space(), 10);
  const auto got = par.evaluate_batch(configs);
  ASSERT_EQ(got.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i].seconds, 1.0 + static_cast<double>(configs[i][0]));
}

TEST(ParallelEvaluator, AdvertisesWindowWidth) {
  auto backend = machine_a();
  ParallelEvaluator twice(backend, {.threads = 4});
  EXPECT_EQ(twice.capabilities().preferred_batch, 8u);  // 2x workers
  EXPECT_TRUE(twice.capabilities().thread_safe);
  ParallelEvaluator fixed(backend, {.threads = 4, .batch_width = 5});
  EXPECT_EQ(fixed.capabilities().preferred_batch, 5u);
}

TEST(FindLayer, WalksDecoratorStackOutermostIn) {
  auto backend = machine_a();
  ResilientEvaluator resilient(backend);
  ParallelEvaluator par(resilient, {.threads = 2});
  EXPECT_EQ(find_layer<ResilientEvaluator>(&par), &resilient);
  EXPECT_EQ(find_layer<ParallelEvaluator>(&par), &par);
  EXPECT_EQ(find_layer<QuadraticEvaluator>(&par), &backend);
  EXPECT_EQ(find_layer<FaultInjectingEvaluator>(&par), nullptr);
}

// ---------------------------------------------------------------------
// Serial-vs-parallel trace parity (the CRN determinism guarantee)
// ---------------------------------------------------------------------

TEST(ParallelParity, RandomSearchTraceIsByteIdentical) {
  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 7;

  auto serial = machine_b();
  serial.fail_when = [](const ParamConfig& c) { return c[0] % 3 == 0; };
  const auto ts = random_search(serial, opt);

  auto backend = machine_b();
  backend.fail_when = [](const ParamConfig& c) { return c[0] % 3 == 0; };
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = random_search(par, opt);

  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
  EXPECT_EQ(ts.failure_stats().failures, tp.failure_stats().failures);
}

TEST(ParallelParity, PrunedSearchTraceIsByteIdentical) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 21;
  const auto source = random_search(a, rs_opt);
  ml::ForestParams fp;
  fp.num_trees = 24;
  fp.seed = 5;
  const auto model = fit_surrogate(source, a.space(), fp);

  SearchOptions opt;
  opt.max_evals = 30;
  opt.seed = 21;
  opt.pool_size = 1000;

  auto serial = machine_b();
  const auto ts = pruned_random_search(serial, *model, opt);
  auto backend = machine_b();
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = pruned_random_search(par, *model, opt);

  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
}

TEST(ParallelParity, BiasedSearchTraceIsByteIdentical) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 31;
  const auto source = random_search(a, rs_opt);
  ml::ForestParams fp;
  fp.num_trees = 24;
  fp.seed = 5;
  const auto model = fit_surrogate(source, a.space(), fp);

  SearchOptions opt;
  opt.max_evals = 25;
  opt.pool_size = 1000;
  opt.seed = 31;

  auto serial = machine_b();
  const auto ts = biased_random_search(serial, *model, opt);
  auto backend = machine_b();
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = biased_random_search(par, *model, opt);

  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
}

/// Full decorator stack: faults -> resilient -> (parallel). The fault
/// injector keys its channels on (seed, config, per-config attempt), so
/// the injected schedule is identical no matter how many threads race.
TEST(ParallelParity, FaultInjectedResilientStackIsByteIdentical) {
  FaultProfile faults;
  faults.transient_rate = 0.15;
  faults.deterministic_rate = 0.10;
  faults.seed = 77;
  RetryPolicy retry;
  retry.max_attempts = 3;

  SearchOptions opt;
  opt.max_evals = 50;
  opt.seed = 13;

  auto backend_s = machine_b();
  FaultInjectingEvaluator faulty_s(backend_s, faults);
  ResilientEvaluator resilient_s(faulty_s, retry);
  const auto ts = random_search(resilient_s, opt);

  auto backend_p = machine_b();
  FaultInjectingEvaluator faulty_p(backend_p, faults);
  ResilientEvaluator resilient_p(faulty_p, retry);
  ParallelEvaluator par(resilient_p, {.threads = 4});
  const auto tp = random_search(par, opt);

  EXPECT_EQ(canonical_csv(ts, backend_s.space()),
            canonical_csv(tp, backend_p.space()));
  const auto ss = resilient_s.stats();
  const auto sp = resilient_p.stats();
  EXPECT_EQ(ss.attempts, sp.attempts);
  EXPECT_EQ(ss.retries, sp.retries);
  EXPECT_EQ(ss.quarantined, sp.quarantined);
  EXPECT_EQ(resilient_s.quarantined_hashes(), resilient_p.quarantined_hashes());
}

TEST(ParallelParity, FailureBudgetAbortStopsAtTheSamePoint) {
  SearchOptions opt;
  opt.max_evals = 200;
  opt.seed = 17;
  opt.failure_budget.max_total = 8;

  auto serial = machine_b();
  serial.fail_when = [](const ParamConfig& c) { return c[0] % 2 == 0; };
  const auto ts = random_search(serial, opt);

  auto backend = machine_b();
  backend.fail_when = [](const ParamConfig& c) { return c[0] % 2 == 0; };
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = random_search(par, opt);

  ASSERT_FALSE(ts.stop_reason().empty());
  EXPECT_EQ(ts.stop_reason(), tp.stop_reason());
  // The parallel window may have *evaluated* a few draws past the abort
  // point, but the trace must not have seen them.
  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
}

/// A source-machine RS trace for the explicit-order searches to walk.
SearchTrace source_rs(std::size_t n, std::uint64_t seed) {
  auto a = machine_a();
  SearchOptions opt;
  opt.max_evals = n;
  opt.seed = seed;
  return random_search(a, opt);
}

TEST(ParallelParity, ReplaySearchTraceIsByteIdentical) {
  const auto source = source_rs(60, 41);
  std::vector<ParamConfig> order;
  for (const auto& e : source.entries()) order.push_back(e.config);
  const auto fails = [](const ParamConfig& c) { return c[2] % 3 == 0; };
  SearchOptions opt;
  opt.max_evals = 30;

  auto serial = machine_b();
  serial.fail_when = fails;
  const auto ts = replay_search(serial, order, opt);
  auto backend = machine_b();
  backend.fail_when = fails;
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = replay_search(par, order, opt);

  ASSERT_EQ(ts.size(), 30u);
  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
  EXPECT_EQ(ts.failure_stats().failures, tp.failure_stats().failures);
}

TEST(ParallelParity, ModelFreePrunedTraceIsByteIdentical) {
  const auto source = source_rs(100, 43);
  const auto fails = [](const ParamConfig& c) { return c[3] % 4 == 0; };
  SearchOptions opt;
  opt.max_evals = SIZE_MAX;
  opt.delta_percent = 30.0;

  auto serial = machine_b();
  serial.fail_when = fails;
  const auto ts = model_free_pruned(serial, source, opt);
  auto backend = machine_b();
  backend.fail_when = fails;
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = model_free_pruned(par, source, opt);

  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
  EXPECT_EQ(ts.failure_stats().failures, tp.failure_stats().failures);
}

TEST(ParallelParity, ModelFreeBiasedAbortStopsAtTheSamePoint) {
  const auto source = source_rs(100, 47);
  SearchOptions opt;
  opt.max_evals = SIZE_MAX;
  opt.failure_budget.max_total = 5;
  const auto fails = [](const ParamConfig& c) { return c[0] % 2 == 0; };

  auto serial = machine_b();
  serial.fail_when = fails;
  const auto ts = model_free_biased(serial, source, opt);
  auto backend = machine_b();
  backend.fail_when = fails;
  ParallelEvaluator par(backend, {.threads = 4});
  const auto tp = model_free_biased(par, source, opt);

  ASSERT_FALSE(ts.stop_reason().empty());
  EXPECT_EQ(ts.stop_reason(), tp.stop_reason());
  EXPECT_EQ(canonical_csv(ts, serial.space()),
            canonical_csv(tp, backend.space()));
  EXPECT_EQ(ts.failure_stats().failures, tp.failure_stats().failures);
}

TEST(ParallelParity, CheckpointResumeMatchesUninterruptedRun) {
  const auto make_options = [] {
    SearchOptions opt;
    opt.max_evals = 60;
    opt.seed = 23;
    return opt;
  };

  auto backend_full = machine_b();
  ParallelEvaluator par_full(backend_full, {.threads = 4});
  const auto uninterrupted = random_search(par_full, make_options());

  // First leg: capture the snapshot taken after 20 recorded evaluations.
  SearchCheckpoint snap;
  auto opt1 = make_options();
  opt1.max_evals = 20;
  opt1.checkpoint_every = 20;
  opt1.on_checkpoint = [&](const SearchCheckpoint& s) { snap = s; };
  auto backend_1 = machine_b();
  ParallelEvaluator par_1(backend_1, {.threads = 4});
  random_search(par_1, opt1);
  ASSERT_EQ(snap.trace.size(), 20u);

  // Second leg: a fresh evaluator stack resumed from the snapshot.
  auto opt2 = make_options();
  opt2.resume = &snap;
  auto backend_2 = machine_b();
  ParallelEvaluator par_2(backend_2, {.threads = 4});
  const auto resumed = random_search(par_2, opt2);

  EXPECT_EQ(canonical_csv(uninterrupted, backend_full.space()),
            canonical_csv(resumed, backend_2.space()));
}

// ---------------------------------------------------------------------
// Concurrency stress
// ---------------------------------------------------------------------

TEST(ConcurrentQuarantine, StaysExactUnderManyThreads) {
  auto backend = machine_a();
  backend.fail_when = [](const ParamConfig& c) { return c[0] % 2 == 0; };
  ResilientEvaluator resilient(backend);

  const auto configs = draw_configs(backend.space(), 32);
  std::size_t expected_failing = 0;
  for (const auto& c : configs) expected_failing += (c[0] % 2 == 0) ? 1 : 0;
  ASSERT_GT(expected_failing, 0u);

  // Hammer every configuration from many threads at once; repeats race
  // the quarantine insertion on purpose.
  ThreadPool pool(8);
  pool.parallel_for(0, configs.size() * 16, [&](std::size_t i) {
    (void)resilient.evaluate(configs[i % configs.size()]);
  });

  for (const auto& c : configs)
    EXPECT_EQ(resilient.is_quarantined(c), c[0] % 2 == 0);
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.quarantined, expected_failing);
  EXPECT_EQ(resilient.quarantine_size(), expected_failing);
  EXPECT_EQ(stats.calls, configs.size() * 16);
  // Once quarantined, repeats are rejected without touching the backend.
  EXPECT_GT(stats.quarantine_hits, 0u);
}

TEST(ConcurrentQuarantine, ParallelBatchesQuarantineEveryFailingConfig) {
  auto backend = machine_a();
  backend.fail_when = [](const ParamConfig& c) { return c[1] % 3 == 0; };
  ResilientEvaluator resilient(backend);
  ParallelEvaluator par(resilient, {.threads = 8, .batch_width = 16});

  const auto configs = draw_configs(backend.space(), 64);
  const auto results = par.evaluate_batch(configs);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const bool fails = configs[i][1] % 3 == 0;
    EXPECT_NE(results[i].ok, fails);
    EXPECT_EQ(resilient.is_quarantined(configs[i]), fails);
  }
}

// ---------------------------------------------------------------------
// Experiment fan-out
// ---------------------------------------------------------------------

TEST(ParallelExperiments, FanOutMatchesSerialJobOrder) {
  ExperimentSettings settings;
  settings.max_evals = 20;
  settings.pool_size = 400;
  settings.forest.num_trees = 12;

  std::vector<ExperimentJob> jobs;
  for (int j = 0; j < 3; ++j) {
    ExperimentJob job;
    job.make_source = [] {
      return std::make_unique<QuadraticEvaluator>(machine_a());
    };
    job.make_target = [] {
      return std::make_unique<QuadraticEvaluator>(machine_b());
    };
    job.settings = settings;
    job.settings.seed = 100 + static_cast<std::uint64_t>(j);
    job.label = "job" + std::to_string(j);
    jobs.push_back(std::move(job));
  }

  const auto serial = run_transfer_experiments(jobs, 1);
  const auto fanned = run_transfer_experiments(jobs, 4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(fanned.size(), jobs.size());
  const ParamSpace space = testing::grid_space();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(canonical_csv(serial[j].target_rs, space),
              canonical_csv(fanned[j].target_rs, space));
    EXPECT_EQ(canonical_csv(serial[j].pruned, space),
              canonical_csv(fanned[j].pruned, space));
    EXPECT_EQ(canonical_csv(serial[j].biased, space),
              canonical_csv(fanned[j].biased, space));
    EXPECT_DOUBLE_EQ(serial[j].pearson, fanned[j].pearson);
    EXPECT_DOUBLE_EQ(serial[j].spearman, fanned[j].spearman);
    EXPECT_DOUBLE_EQ(serial[j].biased_speedup.performance,
                     fanned[j].biased_speedup.performance);
  }
}

}  // namespace
}  // namespace portatune::tuner
