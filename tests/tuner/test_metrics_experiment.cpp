#include <gtest/gtest.h>

#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/experiment.hpp"
#include "tuner/metrics.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

TEST(Speedups, PaperWorkedExample) {
  // "Suppose that RS takes 100 s to find its best configuration (run time
  //  5 s) and RS_b takes 80 s to find its best (3 s), but requires only
  //  50 s to find a configuration with a run time of 5 s. Then the
  //  performance and search time speedups are 1.6X and 2X."
  SearchTrace rs;
  rs.record({0}, 20.0, 0);   // elapsed 20
  rs.record({1}, 75.0, 1);   // elapsed 95
  rs.record({2}, 5.0, 2);    // elapsed 100: the best, found at 100 s
  SearchTrace rsb;
  rsb.record({3}, 45.0, 0);  // elapsed 45
  rsb.record({4}, 5.0, 1);   // elapsed 50: first config <= 5 s
  rsb.record({5}, 27.0, 2);  // elapsed 77
  rsb.record({6}, 3.0, 3);   // elapsed 80: its best
  const auto s = compare_to_rs(rs, rsb);
  EXPECT_NEAR(s.performance, 5.0 / 3.0, 1e-12);  // "1.6X"
  EXPECT_NEAR(s.search, 2.0, 1e-12);
  EXPECT_TRUE(s.successful());
}

TEST(Speedups, VariantNeverReachingGetsZero) {
  SearchTrace rs;
  rs.record({0}, 1.0, 0);
  SearchTrace bad;
  bad.record({1}, 9.0, 0);
  const auto s = compare_to_rs(rs, bad);
  EXPECT_DOUBLE_EQ(s.search, 0.0);
  EXPECT_NEAR(s.performance, 1.0 / 9.0, 1e-12);
  EXPECT_FALSE(s.successful());
}

TEST(Speedups, EmptyVariantIsTotalFailure) {
  SearchTrace rs;
  rs.record({0}, 1.0, 0);
  const auto s = compare_to_rs(rs, SearchTrace{});
  EXPECT_DOUBLE_EQ(s.performance, 0.0);
  EXPECT_DOUBLE_EQ(s.search, 0.0);
}

TEST(Speedups, EmptyReferenceThrows) {
  SearchTrace variant;
  variant.record({0}, 1.0, 0);
  EXPECT_THROW(compare_to_rs(SearchTrace{}, variant), Error);
}

TEST(Speedups, SuccessBoundary) {
  Speedups s;
  s.performance = 1.0;
  s.search = 1.0;
  EXPECT_FALSE(s.successful());  // search must be strictly > 1
  s.search = 1.01;
  EXPECT_TRUE(s.successful());
  s.performance = 0.99;
  EXPECT_FALSE(s.successful());
}

TEST(Experiment, MismatchedSpacesRejected) {
  QuadraticEvaluator a("A", {1, 2}, {1, 1});
  QuadraticEvaluator b("B", {1, 2, 3}, {1, 1, 1});
  ExperimentSettings settings;
  EXPECT_THROW(run_transfer_experiment(a, b, settings), Error);
}

class TransferExperimentFixture : public ::testing::Test {
 protected:
  TransferExperimentFixture()
      : a_("A", {7, 2, 5, 1}, {1.0, 0.5, 2.0, 0.25}),
        b_("B", {7, 2, 5, 1}, {1.1, 0.6, 1.9, 0.2}, 2.0) {
    settings_.max_evals = 60;
    settings_.pool_size = 1500;
    settings_.seed = 2024;
    settings_.forest.num_trees = 24;
    result_ = run_transfer_experiment(a_, b_, settings_);
  }

  QuadraticEvaluator a_, b_;
  ExperimentSettings settings_;
  TransferExperimentResult result_;
};

TEST_F(TransferExperimentFixture, CommonRandomNumbersHold) {
  // The target RS replays exactly the source RS configurations.
  ASSERT_EQ(result_.source_rs.size(), result_.target_rs.size());
  for (std::size_t i = 0; i < result_.source_rs.size(); ++i)
    EXPECT_EQ(result_.source_rs.entry(i).config,
              result_.target_rs.entry(i).config);
}

TEST_F(TransferExperimentFixture, AllTracesPopulated) {
  EXPECT_EQ(result_.source_rs.size(), 60u);
  EXPECT_EQ(result_.biased.size(), 60u);
  EXPECT_GT(result_.pruned.size(), 0u);
  EXPECT_GT(result_.pruned_mf.size(), 0u);
  EXPECT_EQ(result_.biased_mf.size(), 60u);
}

TEST_F(TransferExperimentFixture, CorrelatedMachinesCorrelate) {
  // Same optimum, similar weights: near-perfect rank correlation.
  EXPECT_GT(result_.pearson, 0.9);
  EXPECT_GT(result_.spearman, 0.9);
  EXPECT_GT(result_.top_overlap, 0.5);
}

TEST_F(TransferExperimentFixture, BiasingSucceedsOnCorrelatedPair) {
  EXPECT_GE(result_.biased_speedup.performance, 1.0);
  EXPECT_GT(result_.biased_speedup.search, 1.0);
}

TEST_F(TransferExperimentFixture, ModelFreeBiasingCannotBeatRsBest) {
  // RS_bf revisits exactly the RS configurations, so its best run time on
  // the target equals RS's best -> performance speedup is exactly 1.
  EXPECT_NEAR(result_.biased_mf_speedup.performance, 1.0, 1e-12);
}

TEST(Experiment, AnticorrelatedMachinesDefeatTransfer) {
  // Machine B's optimum sits at the opposite corner: the surrogate sends
  // the search to the wrong region.
  QuadraticEvaluator a("A", {9, 9, 9, 9}, {1, 1, 1, 1});
  QuadraticEvaluator b("B", {0, 0, 0, 0}, {1, 1, 1, 1});
  ExperimentSettings settings;
  settings.max_evals = 60;
  settings.pool_size = 1500;
  settings.forest.num_trees = 24;
  const auto r = run_transfer_experiment(a, b, settings);
  EXPECT_LT(r.spearman, -0.5);
  EXPECT_LT(r.biased_speedup.performance, 1.0);
}

TEST(Experiment, FailuresDoNotBreakTheProtocol) {
  QuadraticEvaluator a("A", {5, 5, 5, 5}, {1, 1, 1, 1});
  QuadraticEvaluator b("B", {5, 5, 5, 5}, {1, 1, 1, 1});
  a.fail_when = [](const ParamConfig& c) { return c[0] == 3; };
  b.fail_when = [](const ParamConfig& c) { return c[0] == 3; };
  ExperimentSettings settings;
  settings.max_evals = 40;
  settings.pool_size = 800;
  settings.forest.num_trees = 16;
  const auto r = run_transfer_experiment(a, b, settings);
  EXPECT_EQ(r.source_rs.size(), 40u);
  for (const auto& e : r.source_rs.entries()) EXPECT_NE(e.config[0], 3);
  EXPECT_GT(r.pearson, 0.9);
}

}  // namespace
}  // namespace portatune::tuner
