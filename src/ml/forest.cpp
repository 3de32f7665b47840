#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace portatune::ml {

namespace {

struct TreeSeeds {
  std::uint64_t bag = 0;
  std::uint64_t tree = 0;
};

/// Per-tree seeds, derived up front so results are identical whether
/// fitting runs serially or across the pool, and so the diagnostics can
/// redraw each tree's bag after the fact.
std::vector<TreeSeeds> tree_seeds(const ForestParams& params) {
  Rng seeder(params.seed);
  std::vector<TreeSeeds> seeds(params.num_trees);
  for (TreeSeeds& s : seeds) {
    s.bag = seeder();
    s.tree = seeder();
  }
  return seeds;
}

/// A tree's bootstrap bag: `rows` row indices drawn with replacement.
std::vector<std::size_t> bootstrap_bag(std::uint64_t seed, std::size_t rows) {
  Rng rng(seed);
  std::vector<std::size_t> bag(rows);
  for (auto& r : bag) r = static_cast<std::size_t>(rng.below(rows));
  return bag;
}

}  // namespace

void RandomForest::fit(const Dataset& train) {
  PT_REQUIRE(!train.empty(), "cannot fit a forest on an empty dataset");
  PT_REQUIRE(params_.num_trees > 0, "forest needs at least one tree");

  // Model-fit cost is one of the "search overhead" quantities the paper
  // argues is negligible; measure it so the claim is checkable.
  auto& metrics = obs::MetricsRegistry::current();
  obs::ScopedTimer fit_span("forest.fit", "ml",
                            {{"rows", train.num_rows()},
                             {"features", train.num_features()},
                             {"trees", params_.num_trees}},
                            &metrics.histogram("forest.fit_seconds"));
  metrics.counter("forest.fits").add();

  const std::size_t m = train.num_features();
  const std::size_t max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max<std::size_t>(1, (m + 2) / 3);  // ceil(m/3)

  const CodedDataset coded(train);
  const std::vector<TreeSeeds> seeds = tree_seeds(params_);
  std::vector<RegressionTree> trees;
  trees.reserve(params_.num_trees);
  for (const TreeSeeds& s : seeds) {
    TreeParams tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = params_.min_samples_leaf;
    tp.min_samples_split = params_.min_samples_split;
    tp.max_features = max_features;
    tp.seed = s.tree;
    trees.emplace_back(tp);
  }

  const auto fit_one = [&](std::size_t t) {
    trees[t].fit(coded, bootstrap_bag(seeds[t].bag, train.num_rows()));
  };
  ThreadPool::global().parallel_for(0, params_.num_trees, fit_one);

  // One contiguous array: each tree's right-child indices shift by where
  // the tree starts; leaves keep right == 0.
  std::size_t total = 0;
  for (const RegressionTree& tree : trees) total += tree.node_count();
  PT_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
             "forest too large for 32-bit node indices");
  nodes_.clear();
  nodes_.reserve(total);
  roots_.clear();
  roots_.reserve(trees.size());
  for (const RegressionTree& tree : trees) {
    const auto base = static_cast<std::uint32_t>(nodes_.size());
    roots_.push_back(base);
    for (TreeNode n : tree.nodes()) {
      if (!n.is_leaf()) n.right += base;
      nodes_.push_back(n);
    }
  }
  num_features_ = m;
}

double RandomForest::oob_rmse(const Dataset& train) const {
  PT_REQUIRE(is_fitted(), "oob_rmse() before fit()");
  PT_REQUIRE(train.num_features() == num_features_, "feature arity mismatch");
  // For each training row, average the predictions of the trees whose
  // bootstrap bag does not contain it.
  const std::size_t n = train.num_rows();
  const std::vector<TreeSeeds> seeds = tree_seeds(params_);
  std::vector<std::vector<char>> bag_masks(roots_.size(),
                                           std::vector<char>(n, 0));
  for (std::size_t t = 0; t < roots_.size(); ++t)
    for (std::size_t r : bootstrap_bag(seeds[t].bag, n)) bag_masks[t][r] = 1;
  double sse = 0.0;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    std::size_t votes = 0;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      if (!bag_masks[t][i]) {
        std::size_t at = roots_[t];
        std::uint64_t live;
        walk_to_leaves(nodes_.data(), {&at, 1},
                       [&](std::size_t) { return train.row(i).data(); },
                       &live);
        sum += nodes_[at].threshold;
        ++votes;
      }
    }
    if (votes == 0) continue;
    const double err = sum / static_cast<double>(votes) - train.target(i);
    sse += err * err;
    ++covered;
  }
  return covered > 0 ? std::sqrt(sse / static_cast<double>(covered))
                     : std::numeric_limits<double>::quiet_NaN();
}

std::vector<double> RandomForest::feature_importances(
    const Dataset& train) const {
  PT_REQUIRE(is_fitted(), "feature_importances() before fit()");
  PT_REQUIRE(train.num_features() == num_features_, "feature arity mismatch");
  // Importance of feature j = increase in MSE when column j is shuffled.
  const std::size_t m = num_features_;
  const std::size_t n = train.num_rows();
  std::vector<double> importances(m, 0.0);
  std::vector<double> base_pred(n);
  for (std::size_t i = 0; i < n; ++i) base_pred[i] = predict(train.row(i));
  double base_mse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = base_pred[i] - train.target(i);
    base_mse += e * e;
  }
  base_mse /= static_cast<double>(n);
  Rng perm_rng(params_.seed ^ 0xabcdef12345ULL);
  std::vector<double> x;
  for (std::size_t j = 0; j < m; ++j) {
    auto order = perm_rng.permutation(n);
    double mse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x.assign(train.row(i).begin(), train.row(i).end());
      x[j] = train.row(order[i])[j];
      const double e = predict(x) - train.target(i);
      mse += e * e;
    }
    mse /= static_cast<double>(n);
    importances[j] = std::max(0.0, mse - base_mse);
  }
  const double total =
      std::accumulate(importances.begin(), importances.end(), 0.0);
  if (total > 0.0)
    for (auto& v : importances) v /= total;
  return importances;
}

double RandomForest::predict(std::span<const double> x) const {
  PT_REQUIRE(is_fitted(), "predict() before fit()");
  PT_REQUIRE(x.size() == num_features_, "feature arity mismatch");
  // One lane per tree, up to kLanes trees at a time; the sum runs in
  // tree order.
  constexpr std::size_t kLanes = 64;
  std::size_t at[kLanes];
  std::uint64_t live[kLanes];
  double sum = 0.0;
  for (std::size_t t0 = 0; t0 < roots_.size(); t0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, roots_.size() - t0);
    std::copy_n(roots_.begin() + t0, lanes, at);
    walk_to_leaves(nodes_.data(), {at, lanes},
                   [&](std::size_t) { return x.data(); }, live);
    for (std::size_t k = 0; k < lanes; ++k) sum += nodes_[at[k]].threshold;
  }
  return sum / static_cast<double>(roots_.size());
}

void RandomForest::predict_rows(std::span<const double> rows,
                                std::size_t cols,
                                std::span<double> out) const {
  PT_REQUIRE(is_fitted(), "predict_rows() before fit()");
  PT_REQUIRE(cols == num_features_, "feature arity mismatch");
  PT_REQUIRE(rows.size() == cols * out.size(), "row matrix shape mismatch");
  // Tree-major over row blocks, one lane per row: a block's features
  // (24 KiB, but at least 128 rows so wide rows still give the walk
  // enough lanes) stay in cache while every tree walks them. Each row
  // still sums its trees in tree order and divides once, exactly as
  // predict() does.
  constexpr std::size_t kMaxBlock = 256;
  constexpr std::size_t kBlockBytes = 24 * 1024;
  const std::size_t block = std::clamp<std::size_t>(
      kBlockBytes / (std::max<std::size_t>(1, cols) * sizeof(double)), 128,
      kMaxBlock);
  const double trees = static_cast<double>(roots_.size());
  std::size_t at[kMaxBlock];
  std::uint64_t live[kMaxBlock];
  for (std::size_t lo = 0; lo < out.size(); lo += block) {
    const std::size_t n = std::min(out.size(), lo + block) - lo;
    const double* x = rows.data() + lo * cols;
    double* y = out.data() + lo;
    std::fill(y, y + n, 0.0);
    for (const std::size_t root : roots_) {
      std::fill(at, at + n, root);
      walk_to_leaves(nodes_.data(), {at, n},
                     [&](std::size_t r) { return x + r * cols; }, live);
      for (std::size_t r = 0; r < n; ++r) y[r] += nodes_[at[r]].threshold;
    }
    for (std::size_t r = 0; r < n; ++r) y[r] /= trees;
  }
}

}  // namespace portatune::ml
