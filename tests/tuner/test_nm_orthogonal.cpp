#include <gtest/gtest.h>

#include "tests/tuner/synthetic.hpp"
#include "tuner/heuristics.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

QuadraticEvaluator convex() {
  return QuadraticEvaluator("host", {6, 3, 8, 2}, {1, 1, 1, 1});
}

TEST(NelderMead, ConvergesNearOptimumOnConvexLandscape) {
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 150;
  opt.seed = 1;
  const auto trace = nelder_mead_search(eval, opt);
  EXPECT_LE(trace.size(), 150u);
  EXPECT_LT(trace.best_seconds(), 6.0);  // optimum is 1.0
  EXPECT_EQ(trace.algorithm(), "NM");
}

TEST(NelderMead, DeterministicForSeed) {
  auto e1 = convex();
  auto e2 = convex();
  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 2;
  const auto t1 = nelder_mead_search(e1, opt);
  const auto t2 = nelder_mead_search(e2, opt);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i)
    EXPECT_EQ(t1.entry(i).config, t2.entry(i).config);
}

TEST(NelderMead, HandlesFailures) {
  auto eval = convex();
  eval.fail_when = [](const ParamConfig& c) { return c[2] == 7; };
  SearchOptions opt;
  opt.max_evals = 80;
  opt.seed = 3;
  const auto trace = nelder_mead_search(eval, opt);
  EXPECT_GT(trace.size(), 5u);
  for (const auto& e : trace.entries()) EXPECT_NE(e.config[2], 7);
}

TEST(Orthogonal, ExactOptimumOnSeparableLandscape) {
  // Coordinate sweeps solve separable quadratics exactly; the space has
  // 4 params x 10 values, so one full round costs <= 37 evaluations.
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 80;
  opt.seed = 4;
  const auto trace = orthogonal_search(eval, opt);
  EXPECT_NEAR(trace.best_seconds(), eval.optimum_value(), 1e-12);
  EXPECT_EQ(trace.algorithm(), "OS");
}

TEST(Orthogonal, RespectsBudgetStrictly) {
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 25;
  opt.seed = 5;
  const auto trace = orthogonal_search(eval, opt);
  EXPECT_LE(trace.size(), 25u);
}

TEST(Orthogonal, SurrogateSeedingHelpsFirstSweep) {
  QuadraticEvaluator a("A", {6, 3, 8, 2}, {1, 1, 1, 1});
  SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 6;
  const auto src = random_search(a, rs_opt);
  ml::ForestParams fp;
  fp.num_trees = 24;
  const auto model = fit_surrogate(src, a.space(), fp);

  auto cold_eval = convex();
  auto warm_eval = convex();
  SearchOptions opt;
  opt.max_evals = 12;  // less than one full sweep
  opt.seed = 7;
  const auto cold_trace = orthogonal_search(cold_eval, opt);
  const auto warm_trace = orthogonal_search(warm_eval, opt, model.get());
  EXPECT_LE(warm_trace.entry(0).seconds, cold_trace.entry(0).seconds);
}

}  // namespace
}  // namespace portatune::tuner
