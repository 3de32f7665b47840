#include "ml/tree.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/error.hpp"

namespace portatune::ml {

void RegressionTree::fit(const Dataset& train) {
  PT_REQUIRE(!train.empty(), "cannot fit a tree on an empty dataset");
  PT_REQUIRE(train.num_features() <= UINT32_MAX, "too many features");
  nodes_.clear();
  samples_.clear();
  depth_ = 0;
  num_features_ = train.num_features();
  std::vector<std::size_t> rows(train.num_rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Rng rng(params_.seed);
  build(train, rows, 0, rng);
}

std::size_t RegressionTree::build(const Dataset& data,
                                  std::vector<std::size_t>& rows,
                                  std::size_t depth, Rng& rng) {
  // A leaf holding the mean target until a split is accepted.
  const std::size_t index = nodes_.size();
  double sum = 0.0;
  for (std::size_t r : rows) sum += data.target(r);
  nodes_.push_back({sum / static_cast<double>(rows.size())});
  samples_.push_back(rows.size());
  depth_ = std::max(depth_, depth);

  const bool depth_ok = params_.max_depth == 0 || depth < params_.max_depth;
  if (!depth_ok || rows.size() < params_.min_samples_split) return index;

  const auto split = best_split(data, rows, rng);
  if (!split || split->gain <= params_.min_gain) return index;

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (std::size_t r : rows) {
    if (data.row(r)[split->feature] <= split->threshold)
      left_rows.push_back(r);
    else
      right_rows.push_back(r);
  }
  if (left_rows.size() < params_.min_samples_leaf ||
      right_rows.size() < params_.min_samples_leaf)
    return index;

  rows.clear();
  rows.shrink_to_fit();  // release before recursing; trees can be deep

  nodes_[index].feature = static_cast<std::uint32_t>(split->feature);
  nodes_[index].threshold = split->threshold;
  build(data, left_rows, depth + 1, rng);  // pre-order: lands at index + 1
  const std::size_t right = build(data, right_rows, depth + 1, rng);
  PT_REQUIRE(right <= UINT32_MAX, "tree too large for 32-bit node indices");
  nodes_[index].right = static_cast<std::uint32_t>(right);
  return index;
}

std::optional<RegressionTree::Split> RegressionTree::best_split(
    const Dataset& data, std::span<const std::size_t> rows, Rng& rng) const {
  const std::size_t n = rows.size();
  PT_ASSERT(n >= 2);

  // Candidate features: all, or a uniform subsample of max_features.
  std::vector<std::size_t> features;
  if (params_.max_features == 0 || params_.max_features >= num_features_) {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    features = rng.sample_without_replacement(num_features_,
                                              params_.max_features);
  }

  // Parent impurity as sum of squared deviations; gain is the reduction in
  // total SSE, which is equivalent to variance-reduction scoring.
  double parent_sum = 0.0, parent_sq = 0.0;
  for (std::size_t r : rows) {
    const double y = data.target(r);
    parent_sum += y;
    parent_sq += y * y;
  }
  const double parent_sse =
      parent_sq - parent_sum * parent_sum / static_cast<double>(n);

  Split best;
  std::vector<std::pair<double, double>> vals;  // (feature value, target)
  vals.reserve(n);
  for (std::size_t f : features) {
    vals.clear();
    for (std::size_t r : rows) vals.emplace_back(data.row(r)[f],
                                                 data.target(r));
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;  // constant column

    // Scan split positions left-to-right, maintaining prefix sums.
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double y = vals[i].second;
      left_sum += y;
      left_sq += y * y;
      if (vals[i].first == vals[i + 1].first) continue;  // can't split a tie
      const auto nl = static_cast<double>(i + 1);
      const auto nr = static_cast<double>(n - i - 1);
      if (i + 1 < params_.min_samples_leaf ||
          n - i - 1 < params_.min_samples_leaf)
        continue;
      const double right_sum = parent_sum - left_sum;
      const double right_sq = parent_sq - left_sq;
      const double sse = (left_sq - left_sum * left_sum / nl) +
                         (right_sq - right_sum * right_sum / nr);
      const double gain = parent_sse - sse;
      if (gain > best.gain) {
        best.feature = f;
        best.threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        best.gain = gain;
      }
    }
  }
  if (best.gain < 0.0) return std::nullopt;
  return best;
}

double RegressionTree::predict(std::span<const double> x) const {
  PT_REQUIRE(is_fitted(), "predict() before fit()");
  PT_REQUIRE(x.size() == num_features_, "feature arity mismatch");
  std::size_t at = 0;
  std::uint64_t live;
  walk_to_leaves(nodes_.data(), {&at, 1},
                 [&](std::size_t) { return x.data(); }, &live);
  return nodes_[at].threshold;
}

std::size_t RegressionTree::leaf_count() const noexcept {
  std::size_t leaves = 0;
  for (const auto& n : nodes_) leaves += n.is_leaf() ? 1 : 0;
  return leaves;
}

namespace {
std::string feature_label(const std::vector<std::string>& names,
                          std::size_t f) {
  if (f < names.size()) return names[f];
  return "x" + std::to_string(f);
}
}  // namespace

void RegressionTree::render(std::size_t node, std::size_t depth,
                            const std::vector<std::string>& names,
                            std::string& out) const {
  const std::string indent(depth * 2, ' ');
  const TreeNode& n = nodes_[node];
  std::ostringstream os;
  if (n.is_leaf()) {
    os << indent << "-> " << n.threshold << "  [n=" << samples_[node]
       << "]\n";
    out += os.str();
    return;
  }
  os << indent << "if " << feature_label(names, n.feature)
     << " <= " << n.threshold << ":\n";
  out += os.str();
  render(node + 1, depth + 1, names, out);
  out += indent + "else:\n";
  render(n.right, depth + 1, names, out);
}

std::string RegressionTree::to_text(
    const std::vector<std::string>& feature_names) const {
  PT_REQUIRE(is_fitted(), "to_text() before fit()");
  std::string out;
  render(0, 0, feature_names, out);
  return out;
}

std::string RegressionTree::to_dot(
    const std::vector<std::string>& feature_names) const {
  PT_REQUIRE(is_fitted(), "to_dot() before fit()");
  std::ostringstream os;
  os << "digraph tree {\n  node [shape=box];\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    if (n.is_leaf()) {
      os << "  n" << i << " [label=\"" << n.threshold << "\\nn=" << samples_[i]
         << "\"];\n";
    } else {
      os << "  n" << i << " [label=\""
         << feature_label(feature_names, n.feature) << " <= " << n.threshold
         << "\"];\n";
      os << "  n" << i << " -> n" << i + 1 << " [label=\"yes\"];\n";
      os << "  n" << i << " -> n" << n.right << " [label=\"no\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace portatune::ml
