// Random forest regressor (Breiman 2001).
//
// The paper's surrogate of choice: an ensemble of CART trees, each fit on a
// bootstrap resample of T_a with per-split feature subsampling; the
// prediction is the mean of the trees' predictions. Trees fit in parallel
// on the global thread pool, from any thread (its parallel_for is
// nest-safe).
//
// fit() fits the trees and nothing else. It codes T_a once for the exact
// linear-time split search (CodedDataset, tree.hpp: O(rows at a node +
// a column's distinct values) per sampled feature; a NaN feature
// throws) and shares the coding read-only across the trees, each of
// which fits on its bootstrap bag as row indices, without copying rows.
// It then concatenates the trees into one contiguous array of 16-byte
// TreeNodes (each tree in pre-order, its right-child indices offset to
// the shared array). predict() walks one lane per tree, the batched
// predict_rows() one lane per row of an L1-sized block, tree by tree;
// both sum a row's tree outputs in tree order before one division, so a
// batch prediction equals the single-row one bit for bit. The
// out-of-bag error and the permutation importances are diagnostics,
// computed only when asked for.
#pragma once

#include <cstdint>

#include "ml/tree.hpp"

namespace portatune::ml {

struct ForestParams {
  std::size_t num_trees = 64;
  /// Per-split feature subsample size; 0 = ceil(m/3) (regression default).
  std::size_t max_features = 0;
  std::size_t max_depth = 0;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 5;
  std::uint64_t seed = 1;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestParams params = {}) : params_(params) {}

  void fit(const Dataset& train) override;
  double predict(std::span<const double> x) const override;
  /// Tree-major over cache-sized row blocks, serially on the calling
  /// thread: callers with many rows (rank_pool) fan out themselves.
  void predict_rows(std::span<const double> rows, std::size_t cols,
                    std::span<double> out) const override;
  bool is_fitted() const noexcept override { return !roots_.empty(); }
  std::string name() const override { return "random_forest"; }

  std::size_t num_trees() const noexcept { return roots_.size(); }

  /// Out-of-bag RMSE: each row of `train` predicted by the trees whose
  /// bootstrap bag missed it (NaN when no row was missed). `train` must be
  /// the dataset the forest was fit on.
  double oob_rmse(const Dataset& train) const;

  /// Permutation feature importances on `train` (the fit dataset): the
  /// increase in training MSE when a column is shuffled, normalized to
  /// sum 1.
  std::vector<double> feature_importances(const Dataset& train) const;

 private:
  ForestParams params_;
  std::vector<TreeNode> nodes_;     ///< every tree, one after another
  std::vector<std::size_t> roots_;  ///< tree t starts at nodes_[roots_[t]]
  std::size_t num_features_ = 0;
};

}  // namespace portatune::ml
