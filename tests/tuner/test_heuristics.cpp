#include "tuner/heuristics.hpp"

#include <gtest/gtest.h>

#include "support/cancellation.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

QuadraticEvaluator convex() {
  return QuadraticEvaluator("host", {6, 3, 8, 2}, {1.0, 1.0, 1.0, 1.0});
}

const struct {
  const char* name;
  HeuristicSearch search;
} kHeuristics[] = {
    {"GA", genetic_search},     {"SA", annealing_search},
    {"PS", pattern_search},     {"Ensemble", ensemble_search},
    {"NM", nelder_mead_search}, {"OS", orthogonal_search},
};

TEST(Genetic, RespectsBudgetAndFindsGoodPoint) {
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 80;
  opt.seed = 1;
  const auto trace = genetic_search(eval, opt);
  EXPECT_LE(trace.size(), 80u);
  EXPECT_GT(trace.size(), 40u);
  // Optimum value is 1.0; GA should get close on a separable quadratic.
  EXPECT_LT(trace.best_seconds(), 10.0);
  EXPECT_EQ(trace.algorithm(), "GA");
}

TEST(Genetic, TinyPopulationRejected) {
  auto eval = convex();
  SearchOptions opt;
  opt.population = 1;
  EXPECT_THROW(genetic_search(eval, opt), Error);
}

TEST(Annealing, ConvergesOnConvexLandscape) {
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 120;
  opt.seed = 2;
  const auto trace = annealing_search(eval, opt);
  EXPECT_LE(trace.size(), 120u);
  EXPECT_LT(trace.best_seconds(), 15.0);
  EXPECT_EQ(trace.algorithm(), "SA");
}

TEST(PatternSearch, DescendsToLocalOptimum) {
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 150;
  opt.seed = 3;
  const auto trace = pattern_search(eval, opt);
  // The quadratic is separable and unimodal: coordinate descent from any
  // start reaches the exact optimum given the budget.
  EXPECT_NEAR(trace.best_seconds(), eval.optimum_value(), 1e-9);
}

TEST(Ensemble, FindsGoodPointAndTracksBudget) {
  auto eval = convex();
  SearchOptions opt;
  opt.max_evals = 120;
  opt.seed = 4;
  const auto trace = ensemble_search(eval, opt);
  EXPECT_LE(trace.size(), 120u);
  EXPECT_LT(trace.best_seconds(), 8.0);
  EXPECT_EQ(trace.algorithm(), "Ensemble");
}

TEST(Heuristics, AllDeterministicForSeed) {
  SearchOptions o;
  o.max_evals = 40;
  o.seed = 9;
  for (const auto& h : kHeuristics) {
    auto e1 = convex();
    auto e2 = convex();
    const SearchTrace t1 = h.search(e1, o, nullptr);
    const SearchTrace t2 = h.search(e2, o, nullptr);
    ASSERT_EQ(t1.size(), t2.size()) << "algorithm " << h.name;
    for (std::size_t i = 0; i < t1.size(); ++i)
      EXPECT_EQ(t1.entry(i).config, t2.entry(i).config)
          << "algorithm " << h.name;
  }
}

TEST(Heuristics, SurrogateSeedingImprovesFirstEvaluations) {
  // Fit a surrogate on machine A, seed machine B's searches with it; the
  // machines share the optimum, so seeded starts must be better than
  // random ones on average.
  QuadraticEvaluator a("A", {6, 3, 8, 2}, {1, 1, 1, 1});
  SearchOptions rs_opt;
  rs_opt.max_evals = 120;
  rs_opt.seed = 17;
  const auto source = random_search(a, rs_opt);
  ml::ForestParams fp;
  fp.num_trees = 24;
  const auto model = fit_surrogate(source, a.space(), fp);

  auto cold_eval = convex();
  auto warm_eval = convex();
  SearchOptions opt;
  opt.max_evals = 20;
  opt.population = 10;
  opt.seed = 18;
  const auto cold_trace = genetic_search(cold_eval, opt);
  const auto warm_trace = genetic_search(warm_eval, opt, model.get());
  // The warm initial population is drawn from the model's predicted-best
  // pool; its first few evaluations should dominate random draws.
  double cold_first = 0, warm_first = 0;
  for (std::size_t i = 0; i < 5 && i < cold_trace.size(); ++i)
    cold_first += cold_trace.entry(i).seconds;
  for (std::size_t i = 0; i < 5 && i < warm_trace.size(); ++i)
    warm_first += warm_trace.entry(i).seconds;
  EXPECT_LT(warm_first, cold_first);
}

TEST(Heuristics, FailuresDoNotStallSearches) {
  auto eval = convex();
  eval.fail_when = [](const ParamConfig& c) { return c[1] == 4; };
  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 21;
  const auto trace = pattern_search(eval, opt);
  EXPECT_GT(trace.size(), 10u);
  for (const auto& e : trace.entries()) EXPECT_NE(e.config[1], 4);
}

/// Request shutdown from inside the 5th evaluation: every proposal is a
/// one-draw window, so `search` must stop right after that evaluation.
void expect_cancelled_after_fifth_evaluation(HeuristicSearch search) {
  auto eval = convex();
  CancellationSource shutdown;
  std::size_t calls = 0;
  eval.fail_when = [&](const ParamConfig&) {
    if (++calls == 5) shutdown.request_cancel();
    return false;
  };
  SearchOptions opt;
  opt.max_evals = 40;
  opt.seed = 9;
  opt.cancel = shutdown.token();
  const SearchTrace trace = search(eval, opt, nullptr);
  EXPECT_EQ(trace.stop_reason(), kCancelledStopReason);
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(eval.calls(), 5u);
}

TEST(HeuristicCancellation, Genetic) {
  expect_cancelled_after_fifth_evaluation(genetic_search);
}
TEST(HeuristicCancellation, Annealing) {
  expect_cancelled_after_fifth_evaluation(annealing_search);
}
TEST(HeuristicCancellation, PatternSearch) {
  expect_cancelled_after_fifth_evaluation(pattern_search);
}
TEST(HeuristicCancellation, Ensemble) {
  expect_cancelled_after_fifth_evaluation(ensemble_search);
}
TEST(HeuristicCancellation, NelderMead) {
  expect_cancelled_after_fifth_evaluation(nelder_mead_search);
}
TEST(HeuristicCancellation, Orthogonal) {
  expect_cancelled_after_fifth_evaluation(orthogonal_search);
}

}  // namespace
}  // namespace portatune::tuner
