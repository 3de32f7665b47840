#include "ml/metrics.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace portatune::ml {

double rmse(std::span<const double> pred, std::span<const double> truth) {
  PT_REQUIRE(pred.size() == truth.size(), "rmse: length mismatch");
  PT_REQUIRE(!pred.empty(), "rmse of empty sample");
  double sse = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = pred[i] - truth[i];
    sse += e * e;
  }
  return std::sqrt(sse / static_cast<double>(pred.size()));
}

double mae(std::span<const double> pred, std::span<const double> truth) {
  PT_REQUIRE(pred.size() == truth.size(), "mae: length mismatch");
  PT_REQUIRE(!pred.empty(), "mae of empty sample");
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    acc += std::abs(pred[i] - truth[i]);
  return acc / static_cast<double>(pred.size());
}

double r_squared(std::span<const double> pred,
                 std::span<const double> truth) {
  PT_REQUIRE(pred.size() == truth.size(), "r2: length mismatch");
  PT_REQUIRE(!pred.empty(), "r2 of empty sample");
  const double m = mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double kfold_rmse(const Dataset& data, std::size_t folds,
                  const std::function<RegressorPtr()>& factory,
                  std::uint64_t seed) {
  PT_REQUIRE(folds >= 2, "need at least two folds");
  PT_REQUIRE(data.num_rows() >= folds, "more folds than rows");
  Rng rng(seed);
  const auto order = rng.permutation(data.num_rows());

  double sse = 0.0;
  std::size_t count = 0;
  for (std::size_t f = 0; f < folds; ++f) {
    std::vector<std::size_t> train_rows, test_rows;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i % folds == f)
        test_rows.push_back(order[i]);
      else
        train_rows.push_back(order[i]);
    }
    auto model = factory();
    model->fit(data.subset(train_rows));
    for (std::size_t r : test_rows) {
      const double e = model->predict(data.row(r)) - data.target(r);
      sse += e * e;
      ++count;
    }
  }
  return std::sqrt(sse / static_cast<double>(count));
}

}  // namespace portatune::ml
