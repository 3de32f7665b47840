#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>

#include "apps/registry.hpp"
#include "ml/forest.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tuner/random_search.hpp"

namespace portatune::ml {
namespace {

Dataset step_function(std::size_t n, double threshold, Rng& rng) {
  // y = 1 if x0 > threshold else 0; x1 is an irrelevant distractor.
  Dataset d(2, {"x0", "x1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    d.add_row(std::vector<double>{x0, x1}, x0 > threshold ? 1.0 : 0.0);
  }
  return d;
}

TEST(RegressionTree, PredictBeforeFitThrows) {
  RegressionTree t;
  EXPECT_THROW(t.predict(std::vector<double>{1.0}), Error);
}

TEST(RegressionTree, FitOnEmptyThrows) {
  RegressionTree t;
  Dataset d(1);
  EXPECT_THROW(t.fit(d), Error);
}

TEST(RegressionTree, ConstantTargetsGiveSingleLeaf) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i)
    d.add_row(std::vector<double>{static_cast<double>(i)}, 5.0);
  RegressionTree t;
  t.fit(d);
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{3.0}), 5.0);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{99.0}), 5.0);
}

TEST(RegressionTree, RecoversStepFunction) {
  Rng rng(3);
  const auto d = step_function(500, 0.6, rng);
  RegressionTree t;
  t.fit(d);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{0.1, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{0.9, 0.5}), 1.0);
}

TEST(RegressionTree, ArityMismatchOnPredictThrows) {
  Rng rng(4);
  const auto d = step_function(50, 0.5, rng);
  RegressionTree t;
  t.fit(d);
  EXPECT_THROW(t.predict(std::vector<double>{1.0}), Error);
}

TEST(RegressionTree, MaxDepthBoundsDepth) {
  Rng rng(5);
  Dataset d(1);
  for (int i = 0; i < 256; ++i)
    d.add_row(std::vector<double>{static_cast<double>(i)},
              static_cast<double>(i));
  TreeParams p;
  p.max_depth = 3;
  RegressionTree t(p);
  t.fit(d);
  EXPECT_LE(t.depth(), 3u);
  EXPECT_LE(t.leaf_count(), 8u);
}

TEST(RegressionTree, MinSamplesLeafHonored) {
  Rng rng(6);
  Dataset d(1);
  for (int i = 0; i < 64; ++i)
    d.add_row(std::vector<double>{static_cast<double>(i)},
              static_cast<double>(i % 7));
  TreeParams p;
  p.min_samples_leaf = 8;
  RegressionTree t(p);
  t.fit(d);
  // With 64 rows and >=8 per leaf, at most 8 leaves exist.
  EXPECT_LE(t.leaf_count(), 8u);
}

TEST(RegressionTree, PredictionsWithinTargetRange) {
  Rng rng(7);
  Dataset d(3);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    d.add_row(x, std::sin(6.0 * x[0]) + x[1]);
  }
  RegressionTree t;
  t.fit(d);
  double lo = 1e300, hi = -1e300;
  for (std::size_t i = 0; i < d.num_rows(); ++i) {
    lo = std::min(lo, d.target(i));
    hi = std::max(hi, d.target(i));
  }
  for (int i = 0; i < 50; ++i) {
    const double y = t.predict(
        std::vector<double>{rng.uniform(), rng.uniform(), rng.uniform()});
    EXPECT_GE(y, lo - 1e-9);
    EXPECT_LE(y, hi + 1e-9);
  }
}

TEST(RegressionTree, TextRenderingNamesFeatures) {
  Rng rng(8);
  const auto d = step_function(200, 0.5, rng);
  RegressionTree t;
  t.fit(d);
  const std::string text = t.to_text({"U_I", "U_J"});
  EXPECT_NE(text.find("U_I"), std::string::npos);
  EXPECT_NE(text.find("if"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
}

TEST(RegressionTree, DotRenderingIsWellFormed) {
  Rng rng(9);
  const auto d = step_function(100, 0.5, rng);
  RegressionTree t;
  t.fit(d);
  const std::string dot = t.to_dot();
  EXPECT_EQ(dot.rfind("digraph tree {", 0), 0u);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(RegressionTree, TrainingFitImprovesWithDepth) {
  Rng rng(10);
  Dataset d(1);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform();
    d.add_row(std::vector<double>{x}, std::sin(10 * x));
  }
  const auto sse = [&](const RegressionTree& t) {
    double acc = 0;
    for (std::size_t i = 0; i < d.num_rows(); ++i) {
      const double e = t.predict(d.row(i)) - d.target(i);
      acc += e * e;
    }
    return acc;
  };
  TreeParams shallow;
  shallow.max_depth = 2;
  RegressionTree t2(shallow);
  t2.fit(d);
  TreeParams deep;
  deep.max_depth = 8;
  RegressionTree t8(deep);
  t8.fit(d);
  EXPECT_LT(sse(t8), sse(t2));
}

class TreeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeDepthSweep, DepthNeverExceedsLimit) {
  Rng rng(11);
  Dataset d(2);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform()};
    d.add_row(x, x[0] * x[1] + 0.01 * rng.normal());
  }
  TreeParams p;
  p.max_depth = GetParam();
  RegressionTree t(p);
  t.fit(d);
  EXPECT_LE(t.depth(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep,
                         ::testing::Values(1u, 2u, 4u, 6u, 10u));

// --- The coded split search against the sort it replaced ---------------

/// The sort-based CART fit the coded split search replaced, kept as the
/// reference it must match bit for bit: for every sampled feature at
/// every node, sort the (value, target) pairs and scan the prefix sums.
class SortedReference {
 public:
  SortedReference(const Dataset& data, TreeParams params)
      : data_(data), params_(params), rng_(params.seed) {}

  void fit(std::vector<std::size_t> rows) { build(rows, 0); }

  std::string to_text() const {
    std::string out;
    render(0, 0, out);
    return out;
  }

  std::vector<TreeNode> nodes;
  std::vector<std::size_t> samples;

 private:
  struct Split {
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = -1.0;
  };

  std::size_t build(std::vector<std::size_t>& rows, std::size_t depth) {
    const std::size_t index = nodes.size();
    double sum = 0.0;
    for (std::size_t r : rows) sum += data_.target(r);
    nodes.push_back({sum / static_cast<double>(rows.size())});
    samples.push_back(rows.size());
    const bool depth_ok = params_.max_depth == 0 || depth < params_.max_depth;
    if (!depth_ok || rows.size() < params_.min_samples_split) return index;
    const auto split = best_split(rows);
    if (!split || split->gain <= params_.min_gain) return index;
    std::vector<std::size_t> left, right;
    for (std::size_t r : rows)
      (data_.row(r)[split->feature] <= split->threshold ? left : right)
          .push_back(r);
    if (left.size() < params_.min_samples_leaf ||
        right.size() < params_.min_samples_leaf)
      return index;
    nodes[index].feature = static_cast<std::uint32_t>(split->feature);
    nodes[index].threshold = split->threshold;
    build(left, depth + 1);
    nodes[index].right = static_cast<std::uint32_t>(build(right, depth + 1));
    return index;
  }

  std::optional<Split> best_split(const std::vector<std::size_t>& rows) {
    const std::size_t n = rows.size();
    const std::size_t m = data_.num_features();
    std::vector<std::size_t> features(m);
    std::iota(features.begin(), features.end(), std::size_t{0});
    if (params_.max_features > 0 && params_.max_features < m)
      features = rng_.sample_without_replacement(m, params_.max_features);
    double parent_sum = 0.0, parent_sq = 0.0;
    for (std::size_t r : rows) {
      parent_sum += data_.target(r);
      parent_sq += data_.target(r) * data_.target(r);
    }
    const double parent_sse =
        parent_sq - parent_sum * parent_sum / static_cast<double>(n);
    Split best;
    std::vector<std::pair<double, double>> vals;
    for (std::size_t f : features) {
      vals.clear();
      for (std::size_t r : rows)
        vals.emplace_back(data_.row(r)[f], data_.target(r));
      std::sort(vals.begin(), vals.end());
      if (vals.front().first == vals.back().first) continue;
      double left_sum = 0.0, left_sq = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const double y = vals[i].second;
        left_sum += y;
        left_sq += y * y;
        if (vals[i].first == vals[i + 1].first) continue;
        if (i + 1 < params_.min_samples_leaf ||
            n - i - 1 < params_.min_samples_leaf)
          continue;
        const auto nl = static_cast<double>(i + 1);
        const auto nr = static_cast<double>(n - i - 1);
        const double right_sum = parent_sum - left_sum;
        const double right_sq = parent_sq - left_sq;
        const double gain =
            parent_sse - ((left_sq - left_sum * left_sum / nl) +
                          (right_sq - right_sum * right_sum / nr));
        if (gain > best.gain)
          best = {f, 0.5 * (vals[i].first + vals[i + 1].first), gain};
      }
    }
    if (best.gain < 0.0) return std::nullopt;
    return best;
  }

  // RegressionTree::to_text()'s format, without feature names.
  void render(std::size_t node, std::size_t depth, std::string& out) const {
    const std::string indent(depth * 2, ' ');
    std::ostringstream os;
    if (nodes[node].is_leaf()) {
      os << indent << "-> " << nodes[node].threshold << "  [n="
         << samples[node] << "]\n";
      out += os.str();
      return;
    }
    os << indent << "if x" << nodes[node].feature
       << " <= " << nodes[node].threshold << ":\n";
    out += os.str();
    render(node + 1, depth + 1, out);
    out += indent + "else:\n";
    render(nodes[node].right, depth + 1, out);
  }

  const Dataset& data_;
  TreeParams params_;
  Rng rng_;
};

/// Fit `bag` of `data` both ways; the node arrays must match field for
/// field (thresholds by bit pattern) and the renderings, which also print
/// every node's row count, byte for byte.
void expect_same_tree(const Dataset& data, const std::vector<std::size_t>& bag,
                      const TreeParams& params) {
  SortedReference ref(data, params);
  ref.fit(bag);
  RegressionTree tree(params);
  tree.fit(CodedDataset(data), bag);
  ASSERT_EQ(tree.nodes().size(), ref.nodes.size());
  for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
    EXPECT_EQ(tree.nodes()[i].feature, ref.nodes[i].feature) << "node " << i;
    EXPECT_EQ(tree.nodes()[i].right, ref.nodes[i].right) << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.nodes()[i].threshold),
              std::bit_cast<std::uint64_t>(ref.nodes[i].threshold))
        << "node " << i;
  }
  EXPECT_EQ(tree.to_text(), ref.to_text());
}

std::vector<std::size_t> bootstrap(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> bag(rows);
  for (std::size_t& r : bag) r = static_cast<std::size_t>(rng.below(rows));
  return bag;
}

/// Columns of 2, 4 and 32 values (many ties), a continuous one, a
/// constant one, and 2-valued coarsenings of the 4- and 32-valued ones:
/// a coarsening can split the rows exactly as its source column does,
/// and then only the order of the prefix sums decides which one wins.
/// Targets are rounded to `target_levels` values (0: not rounded), so
/// tied targets span several values.
Dataset mixed_columns(std::size_t n, double target_levels, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(7);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x{
        static_cast<double>(rng.below(2)),
        static_cast<double>(rng.below(4)) * 16.0,
        static_cast<double>(rng.below(32)) - 8.0, rng.uniform(), 3.0};
    x.push_back(x[1] > 16.0 ? 1.0 : 0.0);
    x.push_back(x[2] > 4.0 ? 1.0 : 0.0);
    double y = std::sin(x[0] + x[1] / 8.0) + x[2] / 16.0 + x[3] +
               0.1 * rng.normal();
    if (target_levels > 0) y = std::round(y * target_levels) / target_levels;
    d.add_row(x, y);
  }
  return d;
}

TEST(CodedSplitSearch, GrowsTheSortsTrees) {
  for (const double levels : {0.0, 2.0}) {  // continuous, then tied targets
    const Dataset d = mixed_columns(160, levels, 21);
    std::vector<std::size_t> every(d.num_rows());
    std::iota(every.begin(), every.end(), std::size_t{0});
    for (const auto& rows : {every, bootstrap(d.num_rows(), 5)})
      for (const std::size_t leaf : {1u, 2u, 5u})
        for (const std::size_t features : {0u, 2u})
          for (const std::size_t depth : {0u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << "levels " << levels << " rows " << rows.size()
                         << " leaf " << leaf << " features " << features
                         << " depth " << depth);
            TreeParams p;
            p.min_samples_leaf = leaf;
            p.max_features = features;
            p.max_depth = depth;
            p.seed = 17;
            expect_same_tree(d, rows, p);
          }
  }
}

TEST(CodedSplitSearch, GrowsTheSortsTreesOnTheRaytracerTrace) {
  // The widest surrogate input: a 100-row RS trace over RT's 247 flags,
  // fit through a bootstrap bag with the forest's defaults.
  const auto rt = apps::make_simulated_evaluator("RT", "Westmere");
  tuner::SearchOptions opt;
  opt.max_evals = 100;
  opt.seed = 7;
  const Dataset d = tuner::random_search(*rt, opt).to_dataset(rt->space());
  ASSERT_EQ(d.num_rows(), 100u);
  const ForestParams fp;
  TreeParams p;
  p.min_samples_leaf = fp.min_samples_leaf;
  p.min_samples_split = fp.min_samples_split;
  p.max_features = (d.num_features() + 2) / 3;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    p.seed = seed;
    expect_same_tree(d, bootstrap(d.num_rows(), seed + 100), p);
  }
}

TEST(CodedSplitSearch, NaNFeatureThrows) {
  Dataset d(2);
  d.add_row(std::vector<double>{1.0, 2.0}, 1.0);
  d.add_row(std::vector<double>{std::numeric_limits<double>::quiet_NaN(), 3.0},
            2.0);
  RegressionTree tree;
  EXPECT_THROW(tree.fit(d), Error);
  RandomForest forest;
  EXPECT_THROW(forest.fit(d), Error);
}

}  // namespace
}  // namespace portatune::ml
