#include "tuner/random_search.hpp"

#include <gtest/gtest.h>

#include "ml/forest.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "support/stats.hpp"
#include "tuner/sampler.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

QuadraticEvaluator machine_a() {
  return QuadraticEvaluator("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25});
}
/// Correlated second machine: same optimum, different weights and base.
QuadraticEvaluator machine_b() {
  return QuadraticEvaluator("B", {7, 2, 5, 1}, {1.2, 0.4, 1.8, 0.3}, 2.0);
}

TEST(RandomSearch, RespectsBudgetAndRecordsMetadata) {
  auto eval = machine_a();
  SearchOptions opt;
  opt.max_evals = 25;
  opt.seed = 3;
  const auto trace = random_search(eval, opt);
  EXPECT_EQ(trace.size(), 25u);
  EXPECT_EQ(trace.algorithm(), "RS");
  EXPECT_EQ(trace.problem(), "quadratic");
  EXPECT_EQ(trace.machine(), "A");
}

TEST(RandomSearch, SameSeedSameDrawOrderAcrossMachines) {
  // The common-random-numbers property: two evaluators with the same
  // space and seed walk identical configuration sequences.
  auto a = machine_a();
  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = 30;
  opt.seed = 11;
  const auto ta = random_search(a, opt);
  const auto tb = random_search(b, opt);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_EQ(ta.entry(i).config, tb.entry(i).config);
}

TEST(RandomSearch, NeverRepeatsConfigurations) {
  auto eval = machine_a();
  SearchOptions opt;
  opt.max_evals = 500;
  opt.seed = 1;
  const auto trace = random_search(eval, opt);
  std::set<std::uint64_t> seen;
  for (const auto& e : trace.entries())
    EXPECT_TRUE(seen.insert(eval.space().config_hash(e.config)).second);
}

TEST(RandomSearch, FailedEvaluationsAreSkipped) {
  auto eval = machine_a();
  eval.fail_when = [](const ParamConfig& c) { return c[0] % 2 == 0; };
  SearchOptions opt;
  opt.max_evals = 40;
  opt.seed = 1;
  const auto trace = random_search(eval, opt);
  EXPECT_EQ(trace.size(), 40u);  // still fills its budget
  for (const auto& e : trace.entries()) EXPECT_NE(e.config[0] % 2, 0);
  EXPECT_GT(eval.calls(), 40u);  // failures consumed draws
}

TEST(ReplaySearch, EvaluatesGivenOrderExactly) {
  auto a = machine_a();
  SearchOptions opt;
  opt.max_evals = 15;
  opt.seed = 1;
  const auto ta = random_search(a, opt);
  std::vector<ParamConfig> order;
  for (const auto& e : ta.entries()) order.push_back(e.config);

  auto b = machine_b();
  const auto tb = replay_search(b, order, opt);
  ASSERT_EQ(tb.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i)
    EXPECT_EQ(tb.entry(i).config, order[i]);
}

ml::RegressorPtr fit_model(const SearchTrace& source,
                           const ParamSpace& space) {
  ml::ForestParams fp;
  fp.num_trees = 24;
  fp.seed = 5;
  return fit_surrogate(source, space, fp);
}

TEST(PrunedSearch, OnlyEvaluatesPredictedGoodConfigs) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 21;
  const auto source = random_search(a, rs_opt);
  const auto model = fit_model(source, a.space());

  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = 30;
  opt.seed = 21;
  opt.delta_percent = 20.0;
  const auto trace = pruned_random_search(b, *model, opt);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_LE(trace.size(), 30u);

  // Every evaluated configuration passed the model's cutoff: its
  // prediction is below the 20% quantile estimated over a fresh pool,
  // so in particular below the median prediction of random configs.
  ConfigStream probe(b.space(), 777);
  std::vector<double> probe_pred;
  for (int i = 0; i < 500; ++i)
    probe_pred.push_back(model->predict(b.space().features(*probe.next())));
  const double median_pred = quantile(probe_pred, 0.5);
  for (const auto& e : trace.entries())
    EXPECT_LT(model->predict(b.space().features(e.config)), median_pred);
}

TEST(PrunedSearch, FallsBackWhenModelPrunesEverything) {
  // A constant model makes every prediction equal to the cutoff, so the
  // strict '<' never admits a configuration; the fallback must still
  // return evaluations.
  ml::RandomForest constant_model({.num_trees = 1, .seed = 1});
  ml::Dataset d(4, {"p0", "p1", "p2", "p3"});
  d.add_row(std::vector<double>{0, 0, 0, 0}, 5.0);
  d.add_row(std::vector<double>{1, 1, 1, 1}, 5.0);
  constant_model.fit(d);

  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = 10;
  opt.seed = 1;
  const auto trace = pruned_random_search(b, constant_model, opt);
  EXPECT_GT(trace.size(), 0u);
}

TEST(PrunedSearch, RejectsBadDelta) {
  auto b = machine_b();
  ml::RandomForest model;
  SearchOptions opt;
  opt.delta_percent = 0;
  EXPECT_THROW(pruned_random_search(b, model, opt), Error);
}

TEST(BiasedSearch, EvaluatesInAscendingPredictedOrder) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 31;
  const auto source = random_search(a, rs_opt);
  const auto model = fit_model(source, a.space());

  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = 25;
  opt.pool_size = 1000;
  opt.seed = 31;
  const auto trace = biased_random_search(b, *model, opt);
  ASSERT_EQ(trace.size(), 25u);
  double prev = -1e300;
  for (const auto& e : trace.entries()) {
    const double pred = model->predict(b.space().features(e.config));
    EXPECT_GE(pred, prev - 1e-12);
    prev = pred;
  }
}

TEST(BiasedSearch, TransfersOptimumOnCorrelatedMachines) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 150;
  rs_opt.seed = 41;
  const auto source = random_search(a, rs_opt);
  const auto model = fit_model(source, a.space());

  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = 20;
  opt.pool_size = 2000;
  opt.seed = 41;
  const auto biased = biased_random_search(b, *model, opt);

  auto b2 = machine_b();
  rs_opt.max_evals = 20;
  const auto plain = random_search(b2, rs_opt);
  // The guided search must find a config at least as good as plain RS
  // with the same budget on this strongly correlated pair.
  EXPECT_LE(biased.best_seconds(), plain.best_seconds());
}

TEST(ModelFree, PrunedUsesSourceQuantile) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 51;
  const auto source = random_search(a, rs_opt);

  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = SIZE_MAX;  // every qualifying source configuration
  opt.delta_percent = 20.0;
  const auto trace = model_free_pruned(b, source, opt);
  // Exactly the best-20%-on-A subset is evaluated (100 * 0.2 = 20 minus
  // quantile boundary effects).
  EXPECT_GE(trace.size(), 15u);
  EXPECT_LE(trace.size(), 20u);
  // Every evaluated config came from the source trace.
  std::set<std::uint64_t> source_configs;
  for (const auto& e : source.entries())
    source_configs.insert(a.space().config_hash(e.config));
  for (const auto& e : trace.entries())
    EXPECT_TRUE(source_configs.count(b.space().config_hash(e.config)));
}

TEST(ModelFree, BiasedVisitsSourceAscending) {
  auto a = machine_a();
  SearchOptions rs_opt;
  rs_opt.max_evals = 50;
  rs_opt.seed = 61;
  const auto source = random_search(a, rs_opt);

  auto b = machine_b();
  SearchOptions opt;
  opt.max_evals = SIZE_MAX;  // every source configuration
  const auto trace = model_free_biased(b, source, opt);
  ASSERT_EQ(trace.size(), 50u);
  // The evaluation order on B follows ascending source run time; since
  // the machines share the optimum, B's run times are near-sorted. Check
  // the first evaluated config is the source's best.
  EXPECT_EQ(trace.entry(0).config, source.best_config());
}

TEST(ModelFree, EmptySourceThrows) {
  auto b = machine_b();
  const SearchTrace empty;
  EXPECT_THROW(model_free_pruned(b, empty, {}), Error);
  EXPECT_THROW(model_free_biased(b, empty, {}), Error);
}

}  // namespace
}  // namespace portatune::tuner
