// CART regression tree (recursive partitioning).
//
// Implements the recursive-partitioning surrogate of Sec. III-A: the input
// space is split into hyperrectangles by axis-aligned if-else rules chosen
// to minimize within-partition run-time variance; each leaf predicts the
// mean run time of the training configurations it contains (paper Fig. 2).
//
// A fitted tree is an array of 16-byte TreeNodes in pre-order: a node,
// then its left subtree, then its right subtree. walk_to_leaves() is the
// one walk over that layout: the single tree runs it with one lane, the
// random forest (which concatenates its trees' arrays into one) with a
// lane per tree or per row.
//
// The split search is exact and linear-time. A CodedDataset codes the
// training set once: each column's distinct values, each row's value
// code, and the rows in target order. A node keeps its rows in bag order
// (its leaf mean and parent sums add in that order) and in target order;
// one stable counting pass by value code over the target-ordered rows
// yields exactly the (value, target) sequence a sort would, so prefix
// sums, gains, ties and thresholds are those of the sort-based search.
// A sampled feature costs O(rows at the node + the column's distinct
// values). A NaN training feature is rejected: it has no place in an
// ordering.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/model.hpp"
#include "support/rng.hpp"

namespace portatune::ml {

/// One node of a fitted tree. Pre-order storage puts an internal node's
/// left child right after it, so only the right child needs an index. No
/// node points back at a root, so `right == 0` marks a leaf, which keeps
/// its prediction (the mean target of its rows) in `threshold`.
struct TreeNode {
  double threshold = 0.0;    ///< split value; a leaf's prediction
  std::uint32_t feature = 0;
  std::uint32_t right = 0;   ///< index of the right child; 0: leaf
  bool is_leaf() const noexcept { return right == 0; }
};
static_assert(sizeof(TreeNode) == 16, "TreeNode must stay 16 bytes");

/// Walk lanes down to their leaves. Lane k starts at nodes[at[k]] and
/// reads its features from row(k); on return at[k] is the leaf it
/// reached. The child test is `x[feature] <= threshold`, so NaN goes
/// right. Each pass steps only the lanes still at an internal node and
/// takes no data-dependent branch, so the steps of many lanes (rows of a
/// block, trees of a forest) overlap in the CPU instead of stalling on
/// mispredictions. `live` is scratch space for at.size() lanes; node
/// indices and lane numbers fit 32 bits.
template <typename RowFn>
void walk_to_leaves(const TreeNode* nodes, std::span<std::size_t> at,
                    RowFn row, std::uint64_t* live) noexcept {
  // A live entry packs (lane << 32) | node, so a step reads one word.
  std::size_t count = 0;
  for (std::size_t k = 0; k < at.size(); ++k) {
    live[count] = std::uint64_t{k} << 32 | at[k];
    count += !nodes[at[k]].is_leaf();
  }
  while (count > 0) {
    std::size_t still = 0;  // compacts `live` in place: still <= j
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t lane = live[j];
      const std::size_t k = lane >> 32;
      const std::size_t i = static_cast<std::uint32_t>(lane);
      const TreeNode& n = nodes[i];
      // An all-ones mask rather than ?:, which compilers turn back into
      // a branch.
      const std::size_t left =
          -static_cast<std::size_t>(row(k)[n.feature] <= n.threshold);
      const std::size_t next = ((i + 1) & left) | (n.right & ~left);
      at[k] = next;
      live[still] = (lane & ~std::uint64_t{0xffffffff}) | next;
      still += !nodes[next].is_leaf();
    }
    count = still;
  }
}

/// A training set coded for the split search, once per fit; a forest
/// shares one, read-only, across the trees it fits. Throws
/// portatune::Error on an empty dataset or a NaN feature.
class CodedDataset {
 public:
  explicit CodedDataset(const Dataset& data);

  std::size_t num_rows() const noexcept { return targets_.size(); }
  std::size_t num_features() const noexcept { return offsets_.size() - 1; }
  double target(std::size_t r) const noexcept { return targets_[r]; }
  /// Column f's distinct values, ascending.
  std::span<const double> values(std::size_t f) const noexcept {
    return std::span(values_).subspan(offsets_[f],
                                      offsets_[f + 1] - offsets_[f]);
  }
  /// Per row, the index of its column-f value in values(f).
  std::span<const std::uint32_t> codes(std::size_t f) const noexcept {
    return std::span(codes_).subspan(f * num_rows(), num_rows());
  }
  /// Every row, ascending by target.
  std::span<const std::uint32_t> by_target() const noexcept {
    return by_target_;
  }

 private:
  std::vector<double> targets_;
  std::vector<double> values_;        ///< every column's, one after another
  std::vector<std::size_t> offsets_;  ///< column f: values_[offsets_[f]..]
  std::vector<std::uint32_t> codes_;  ///< column-major
  std::vector<std::uint32_t> by_target_;
};

struct TreeParams {
  /// Maximum tree depth (root has depth 0); 0 means unlimited.
  std::size_t max_depth = 0;
  /// A split is attempted only on nodes with at least this many rows.
  std::size_t min_samples_split = 2;
  /// Each child of an accepted split must hold at least this many rows.
  std::size_t min_samples_leaf = 1;
  /// Features examined per split; 0 = all (single tree), forests typically
  /// pass ceil(m/3) for regression.
  std::size_t max_features = 0;
  /// Minimum variance-reduction gain for a split to be accepted.
  double min_gain = 0.0;
  /// Seed for feature subsampling (only consulted when max_features > 0).
  std::uint64_t seed = 1;
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeParams params = {}) : params_(params) {}

  /// Codes `train` and fits on every row once.
  void fit(const Dataset& train) override;
  /// Fit on the rows of `train` listed in `bag` (repeats allowed: a
  /// bootstrap bag), in that order.
  void fit(const CodedDataset& train, std::span<const std::size_t> bag);
  double predict(std::span<const double> x) const override;
  bool is_fitted() const noexcept override { return !nodes_.empty(); }
  std::string name() const override { return "regression_tree"; }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t leaf_count() const noexcept;
  /// Levels from the root to the deepest leaf (0: the root is a leaf).
  std::size_t depth() const noexcept { return depth_; }
  /// The fitted nodes in pre-order; the root is nodes()[0].
  std::span<const TreeNode> nodes() const noexcept { return nodes_; }

  /// Render as an indented if-else rule listing (Fig. 2 style).
  std::string to_text(const std::vector<std::string>& feature_names = {})
      const;
  /// Render as Graphviz DOT; node n<i> is nodes()[i].
  std::string to_dot(const std::vector<std::string>& feature_names = {}) const;

 private:
  struct Split {
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = -1.0;
  };
  struct Builder;

  std::size_t build(Builder& b, std::size_t lo, std::size_t hi,
                    std::size_t depth);
  std::optional<Split> best_split(Builder& b, std::size_t lo,
                                  std::size_t hi) const;
  void render(std::size_t node, std::size_t depth,
              const std::vector<std::string>& names, std::string& out) const;

  TreeParams params_;
  std::vector<TreeNode> nodes_;
  std::vector<std::size_t> samples_;  ///< training rows under nodes_[i]
  std::size_t depth_ = 0;
  std::size_t num_features_ = 0;
};

}  // namespace portatune::ml
