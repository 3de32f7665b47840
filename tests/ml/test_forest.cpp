#include "ml/forest.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace portatune::ml {
namespace {

Dataset friedman_like(std::size_t n, std::uint64_t seed) {
  // y = 10 sin(pi x0 x1) + 20 (x2 - .5)^2 + small noise; x3 irrelevant.
  Rng rng(seed);
  Dataset d(4, {"x0", "x1", "x2", "x3"});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    const double y = 10 * std::sin(3.14159 * x[0] * x[1]) +
                     20 * (x[2] - 0.5) * (x[2] - 0.5) +
                     0.1 * rng.normal();
    d.add_row(x, y);
  }
  return d;
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest f;
  EXPECT_THROW(f.predict(std::vector<double>{1, 2, 3, 4}), Error);
}

TEST(RandomForest, ZeroTreesRejected) {
  ForestParams p;
  p.num_trees = 0;
  RandomForest f(p);
  EXPECT_THROW(f.fit(friedman_like(10, 1)), Error);
}

TEST(RandomForest, DeterministicForSeed) {
  const auto d = friedman_like(200, 2);
  ForestParams p;
  p.num_trees = 16;
  p.seed = 99;
  RandomForest a(p), b(p);
  a.fit(d);
  b.fit(d);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    EXPECT_EQ(a.predict(x), b.predict(x));
  }
}

TEST(RandomForest, FitInsideBusyPoolAgreesWithMainThreadFit) {
  // A fit fans its trees out on the global pool from any thread: here
  // from inside a parallel_for that keeps every global worker fitting.
  const auto d = friedman_like(150, 4);
  ForestParams p;
  p.num_trees = 8;
  p.seed = 5;
  RandomForest reference(p);
  reference.fit(d);
  ThreadPool& pool = ThreadPool::global();
  std::vector<RandomForest> nested(4 * (pool.size() + 1), RandomForest(p));
  pool.parallel_for(0, nested.size(),
                    [&](std::size_t i) { nested[i].fit(d); });
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    for (const RandomForest& f : nested)
      EXPECT_EQ(reference.predict(x), f.predict(x));
  }
}

TEST(RandomForest, BeatsMeanPredictorOnHeldOut) {
  const auto train = friedman_like(600, 7);
  const auto test = friedman_like(200, 8);
  ForestParams p;
  p.num_trees = 48;
  p.seed = 9;
  RandomForest f(p);
  f.fit(train);
  const auto pred = f.predict_batch(test);
  std::vector<double> truth(test.targets().begin(), test.targets().end());
  const double forest_rmse = rmse(pred, truth);
  // Mean predictor baseline.
  double m = 0;
  for (double t : truth) m += t;
  m /= static_cast<double>(truth.size());
  double sse = 0;
  for (double t : truth) sse += (t - m) * (t - m);
  const double mean_rmse = std::sqrt(sse / static_cast<double>(truth.size()));
  EXPECT_LT(forest_rmse, 0.5 * mean_rmse);
}

TEST(RandomForest, OobRmseIsFiniteAndReasonable) {
  const auto d = friedman_like(300, 10);
  ForestParams p;
  p.num_trees = 32;
  RandomForest f(p);
  f.fit(d);
  const double oob = f.oob_rmse(d);
  EXPECT_TRUE(std::isfinite(oob));
  EXPECT_GT(oob, 0.0);
  EXPECT_LT(oob, 10.0);
}

TEST(RandomForest, ImportancesIdentifyRelevantFeatures) {
  const auto d = friedman_like(500, 11);
  ForestParams p;
  p.num_trees = 32;
  RandomForest f(p);
  f.fit(d);
  const auto imp = f.feature_importances(d);
  ASSERT_EQ(imp.size(), 4u);
  double sum = 0;
  for (double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The irrelevant x3 must matter less than the dominant x0.
  EXPECT_GT(imp[0], imp[3]);
}

TEST(RandomForest, PredictBatchMatchesScalarPredict) {
  const auto d = friedman_like(100, 12);
  ForestParams p;
  p.num_trees = 8;
  RandomForest f(p);
  f.fit(d);
  // The training rows take the serial path; 2053 more rows take several
  // parallel row blocks and a short tail, and some carry a NaN feature
  // (the child test sends it right).
  Dataset rows = d;
  Rng rng(17);
  for (std::size_t i = 0; i < 2053; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    if (i % 97 == 0) x[i % 4] = std::nan("");
    rows.add_row(x, 0.0);
  }
  const Dataset* sets[] = {&d, &rows};
  for (const Dataset* data : sets) {
    const auto batch = f.predict_batch(*data);
    ASSERT_EQ(batch.size(), data->num_rows());
    for (std::size_t i = 0; i < data->num_rows(); ++i)
      EXPECT_EQ(batch[i], f.predict(data->row(i))) << "row " << i;
  }
}

TEST(RandomForest, BatchRejectsWrongShape) {
  const auto d = friedman_like(50, 18);
  ForestParams p;
  p.num_trees = 4;
  RandomForest f(p);
  f.fit(d);
  std::vector<double> out(2);
  const std::vector<double> rows(6, 0.5);
  EXPECT_THROW(f.predict_rows(rows, 3, out), Error);  // 3 != 4 features
  const std::vector<double> short_rows(7, 0.5);
  EXPECT_THROW(f.predict_rows(short_rows, 4, out), Error);
  EXPECT_THROW(f.oob_rmse(Dataset(3)), Error);
}

TEST(RandomForest, DiagnosticsBeforeFitThrow) {
  const auto d = friedman_like(20, 19);
  RandomForest f;
  EXPECT_THROW(f.oob_rmse(d), Error);
  EXPECT_THROW(f.feature_importances(d), Error);
}

class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, MoreTreesNeverBreakFit) {
  const auto train = friedman_like(300, 13);
  const auto test = friedman_like(100, 14);
  ForestParams p;
  p.num_trees = GetParam();
  p.seed = 15;
  RandomForest f(p);
  f.fit(train);
  const auto pred = f.predict_batch(test);
  std::vector<double> truth(test.targets().begin(), test.targets().end());
  // Any forest size must stay far below the data's spread (~7).
  EXPECT_LT(rmse(pred, truth), 4.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeSweep,
                         ::testing::Values(1u, 4u, 16u, 64u));

}  // namespace
}  // namespace portatune::ml
