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

  void fit(const Dataset& train) override;
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

  std::size_t build(const Dataset& data, std::vector<std::size_t>& rows,
                    std::size_t depth, Rng& rng);
  std::optional<Split> best_split(const Dataset& data,
                                  std::span<const std::size_t> rows,
                                  Rng& rng) const;
  void render(std::size_t node, std::size_t depth,
              const std::vector<std::string>& names, std::string& out) const;

  TreeParams params_;
  std::vector<TreeNode> nodes_;
  std::vector<std::size_t> samples_;  ///< training rows under nodes_[i]
  std::size_t depth_ = 0;
  std::size_t num_features_ = 0;
};

}  // namespace portatune::ml
