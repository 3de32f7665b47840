#include <gtest/gtest.h>

#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/adaptive.hpp"
#include "tuner/random_search.hpp"
#include "tuner/similarity.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

QuadraticEvaluator source_machine() {
  return QuadraticEvaluator("A", {7, 2, 5, 1}, {1, 1, 1, 1});
}

SearchTrace source_trace(QuadraticEvaluator& a, std::size_t n = 80) {
  SearchOptions opt;
  opt.max_evals = n;
  opt.seed = 5;
  return random_search(a, opt);
}

TEST(Adaptive, RespectsBudgetAndRecordsAlgorithm) {
  auto a = source_machine();
  const auto src = source_trace(a);
  QuadraticEvaluator b("B", {7, 2, 5, 1}, {1.1, 0.9, 1.2, 0.8});
  SearchOptions opt;
  opt.max_evals = 40;
  opt.seed = 1;
  opt.pool_size = 800;
  opt.forest.num_trees = 16;
  const auto trace = adaptive_biased_search(b, src, opt);
  EXPECT_EQ(trace.size(), 40u);
  EXPECT_EQ(trace.algorithm(), "RS_b_adaptive");
}

TEST(Adaptive, WorksWithEmptySource) {
  QuadraticEvaluator b("B", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchOptions opt;
  opt.max_evals = 30;
  opt.seed = 1;
  opt.pool_size = 500;
  opt.refit_interval = 5;
  opt.forest.num_trees = 8;
  const auto trace = adaptive_biased_search(b, SearchTrace{}, opt);
  EXPECT_EQ(trace.size(), 30u);
  // Online model-based search on a convex landscape should end well
  // below the landscape median (~35 for this quadratic).
  EXPECT_LT(trace.best_seconds(), 15.0);
}

TEST(Adaptive, RecoversFromMisleadingSource) {
  // Source optimum at the opposite corner: plain RS_b is sent to the
  // wrong region, but refits on target data must pull the adaptive
  // search back.
  QuadraticEvaluator a("A", {9, 9, 9, 9}, {1, 1, 1, 1});
  const auto src = source_trace(a, 100);
  ml::ForestParams fp;
  fp.num_trees = 24;
  fp.seed = 7;
  const auto model = fit_surrogate(src, a.space(), fp);

  QuadraticEvaluator b1("B", {0, 0, 0, 0}, {1, 1, 1, 1});
  SearchOptions static_opt;
  static_opt.max_evals = 50;
  static_opt.pool_size = 1000;
  static_opt.seed = 7;
  const auto static_trace = biased_random_search(b1, *model, static_opt);

  QuadraticEvaluator b2("B", {0, 0, 0, 0}, {1, 1, 1, 1});
  SearchOptions opt;
  opt.max_evals = 50;
  opt.pool_size = 1000;
  opt.refit_interval = 10;
  opt.target_weight = 4;
  opt.seed = 7;
  opt.forest.num_trees = 24;
  const auto adaptive_trace = adaptive_biased_search(b2, src, opt);

  EXPECT_LT(adaptive_trace.best_seconds(), static_trace.best_seconds());
}

TEST(Adaptive, RejectsBadOptions) {
  auto a = source_machine();
  const auto src = source_trace(a, 10);
  QuadraticEvaluator b("B", {1, 1, 1, 1}, {1, 1, 1, 1});
  SearchOptions opt;
  opt.seed = 1;
  opt.refit_interval = 0;
  EXPECT_THROW(adaptive_biased_search(b, src, opt), Error);
}

TEST(Adaptive, WithoutRefitsItIsBiasedSearch) {
  // refit_interval >= max_evals: the only fit is the initial one on the
  // source rows, so the run is RS_b under that model, entry for entry —
  // failed draws included.
  auto a = source_machine();
  const auto src = source_trace(a);
  SearchOptions opt;
  opt.max_evals = 30;
  opt.pool_size = 600;
  opt.refit_interval = 30;
  opt.seed = 11;
  opt.forest.num_trees = 16;
  const auto fails = [](const ParamConfig& c) { return c[1] % 4 == 0; };
  QuadraticEvaluator b1("B", {7, 2, 5, 1}, {1.1, 0.9, 1.2, 0.8});
  b1.fail_when = fails;
  const auto adaptive = adaptive_biased_search(b1, src, opt);

  ml::ForestParams fp = opt.forest;
  fp.seed = opt.seed;
  const auto model = fit_surrogate(src, a.space(), fp);
  SearchOptions b_opt;
  b_opt.max_evals = opt.max_evals;
  b_opt.pool_size = opt.pool_size;
  b_opt.seed = opt.seed;
  QuadraticEvaluator b2("B", {7, 2, 5, 1}, {1.1, 0.9, 1.2, 0.8});
  b2.fail_when = fails;
  const auto biased = biased_random_search(b2, *model, b_opt);

  ASSERT_EQ(adaptive.size(), biased.size());
  for (std::size_t i = 0; i < biased.size(); ++i) {
    EXPECT_EQ(adaptive.entry(i).config, biased.entry(i).config) << i;
    EXPECT_DOUBLE_EQ(adaptive.entry(i).seconds, biased.entry(i).seconds) << i;
    EXPECT_EQ(adaptive.entry(i).draw_index, biased.entry(i).draw_index) << i;
  }
  EXPECT_EQ(adaptive.failure_stats().failures,
            biased.failure_stats().failures);
  EXPECT_GT(biased.failure_stats().failures, 0u);
}

TEST(Adaptive, CancellationStopsAtTheNextWindow) {
  auto a = source_machine();
  const auto src = source_trace(a, 20);
  QuadraticEvaluator b("B", {7, 2, 5, 1}, {1.1, 0.9, 1.2, 0.8});
  CancellationSource shutdown;
  // Request shutdown from inside the 5th evaluation; the adaptive search
  // evaluates one draw per window, so it stops right after that one.
  std::size_t calls = 0;
  b.fail_when = [&](const ParamConfig&) {
    if (++calls == 5) shutdown.request_cancel();
    return false;
  };
  SearchOptions opt;
  opt.max_evals = 30;
  opt.seed = 1;
  opt.pool_size = 200;
  opt.forest.num_trees = 8;
  opt.cancel = shutdown.token();
  const auto trace = adaptive_biased_search(b, src, opt);
  EXPECT_EQ(trace.stop_reason(), kCancelledStopReason);
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(b.calls(), 5u);
}

TEST(Similarity, IdenticalMachinesScorePerfect) {
  QuadraticEvaluator a("A", {3, 4, 5, 6}, {1, 2, 1, 2});
  QuadraticEvaluator b("B", {3, 4, 5, 6}, {1, 2, 1, 2});
  const auto rep = measure_similarity(a, b);
  EXPECT_EQ(rep.probes, 30u);
  EXPECT_NEAR(rep.spearman, 1.0, 1e-9);
  EXPECT_NEAR(rep.pearson, 1.0, 1e-9);
  EXPECT_NEAR(rep.log_ratio_dispersion, 0.0, 1e-9);
  EXPECT_EQ(advise(rep), TransferAdvice::Transfer);
}

TEST(Similarity, RescaledMachineHasZeroDispersion) {
  // Target = 3x source: same landscape, different absolute times.
  class Scaled final : public Evaluator {
   public:
    explicit Scaled(QuadraticEvaluator& base) : base_(base) {}
    const ParamSpace& space() const override { return base_.space(); }
    EvalResult evaluate(const ParamConfig& c) override {
      auto r = base_.evaluate(c);
      r.seconds *= 3.0;
      return r;
    }
    std::string problem_name() const override { return "scaled"; }
    std::string machine_name() const override { return "B"; }

   private:
    QuadraticEvaluator& base_;
  };
  QuadraticEvaluator a("A", {3, 4, 5, 6}, {1, 2, 1, 2});
  QuadraticEvaluator a2("A", {3, 4, 5, 6}, {1, 2, 1, 2});
  Scaled b(a2);
  const auto rep = measure_similarity(a, b);
  EXPECT_NEAR(rep.log_ratio_dispersion, 0.0, 1e-9);
  EXPECT_NEAR(rep.spearman, 1.0, 1e-9);
}

TEST(Similarity, OppositeMachinesScoreNegative) {
  QuadraticEvaluator a("A", {9, 9, 9, 9}, {1, 1, 1, 1});
  QuadraticEvaluator b("B", {0, 0, 0, 0}, {1, 1, 1, 1});
  const auto rep = measure_similarity(a, b);
  EXPECT_LT(rep.spearman, 0.0);
  EXPECT_EQ(advise(rep), TransferAdvice::DoNotTransfer);
}

TEST(Similarity, SurvivesFailingEvaluations) {
  QuadraticEvaluator a("A", {5, 5, 5, 5}, {1, 1, 1, 1});
  QuadraticEvaluator b("B", {5, 5, 5, 5}, {1, 1, 1, 1});
  a.fail_when = [](const ParamConfig& c) { return c[0] == 2; };
  const auto rep = measure_similarity(a, b);
  EXPECT_EQ(rep.probes, 30u);  // failures were replaced by fresh draws
}

TEST(Similarity, AdviceStringsAreStable) {
  EXPECT_EQ(to_string(TransferAdvice::Transfer), "transfer");
  EXPECT_EQ(to_string(TransferAdvice::DoNotTransfer), "do not transfer");
}

TEST(Similarity, RejectsTinyProbeCounts) {
  QuadraticEvaluator a("A", {1, 1, 1, 1}, {1, 1, 1, 1});
  QuadraticEvaluator b("B", {1, 1, 1, 1}, {1, 1, 1, 1});
  SimilarityOptions opt;
  opt.probes = 2;
  EXPECT_THROW(measure_similarity(a, b, opt), Error);
}

}  // namespace
}  // namespace portatune::tuner
