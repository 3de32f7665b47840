#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "support/error.hpp"

namespace portatune::ml {

CodedDataset::CodedDataset(const Dataset& data)
    : targets_(data.targets().begin(), data.targets().end()) {
  PT_REQUIRE(!data.empty(), "cannot fit a tree on an empty dataset");
  PT_REQUIRE(data.num_rows() <= UINT32_MAX, "too many training rows");
  const std::size_t n = data.num_rows();
  const std::size_t m = data.num_features();
  offsets_.reserve(m + 1);
  offsets_.push_back(0);
  codes_.resize(m * n);
  std::vector<double> column(n);
  for (std::size_t f = 0; f < m; ++f) {
    for (std::size_t r = 0; r < n; ++r) {
      column[r] = data.row(r)[f];
      PT_REQUIRE(!std::isnan(column[r]),
                 "NaN training feature (row " + std::to_string(r) +
                     ", column " + std::to_string(f) + ")");
    }
    std::vector<double> distinct = column;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (std::size_t r = 0; r < n; ++r)
      codes_[f * n + r] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), column[r]) -
          distinct.begin());
    values_.insert(values_.end(), distinct.begin(), distinct.end());
    offsets_.push_back(values_.size());
  }
  by_target_.resize(n);
  std::iota(by_target_.begin(), by_target_.end(), std::uint32_t{0});
  std::stable_sort(by_target_.begin(), by_target_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return targets_[a] < targets_[b];
                   });
}

/// One fit's node rows and scratch. Node rows are the range [lo, hi) of
/// both `bag` (bag order) and `sorted` (target order); a split partitions
/// both ranges stably, so every node's rows stay in both orders.
struct RegressionTree::Builder {
  const CodedDataset& data;
  std::vector<std::uint32_t> bag;
  std::vector<std::uint32_t> sorted;
  std::vector<std::uint32_t> spill;  ///< a partition's right-going rows
  std::vector<std::size_t> ends;     ///< per value code: end of its group
  std::vector<double> grouped;       ///< targets, by value then target
  std::vector<char> goes_left;       ///< per value code, for a split
  Rng rng;
};

void RegressionTree::fit(const Dataset& train) {
  std::vector<std::size_t> rows(train.num_rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit(CodedDataset(train), rows);
}

void RegressionTree::fit(const CodedDataset& train,
                         std::span<const std::size_t> bag) {
  PT_REQUIRE(!bag.empty(), "cannot fit a tree on an empty dataset");
  PT_REQUIRE(train.num_features() <= UINT32_MAX, "too many features");
  nodes_.clear();
  samples_.clear();
  depth_ = 0;
  num_features_ = train.num_features();

  const std::size_t n = train.num_rows();
  std::size_t widest = 0;
  for (std::size_t f = 0; f < num_features_; ++f)
    widest = std::max(widest, train.values(f).size());
  Builder b{train, {}, {}, std::vector<std::uint32_t>(bag.size()),
            std::vector<std::size_t>(widest), std::vector<double>(bag.size()),
            std::vector<char>(widest), Rng(params_.seed)};
  // Bag order as given; target order by counting how often the bag holds
  // each row and walking the rows in target order.
  b.bag.reserve(bag.size());
  std::vector<std::uint32_t> copies(n, 0);
  for (std::size_t r : bag) {
    PT_REQUIRE(r < n, "bag row index out of range");
    b.bag.push_back(static_cast<std::uint32_t>(r));
    ++copies[r];
  }
  b.sorted.reserve(bag.size());
  for (std::uint32_t r : train.by_target())
    b.sorted.insert(b.sorted.end(), copies[r], r);
  build(b, 0, bag.size(), 0);
}

std::size_t RegressionTree::build(Builder& b, std::size_t lo, std::size_t hi,
                                  std::size_t depth) {
  // A leaf holding the mean target until a split is accepted.
  const std::size_t index = nodes_.size();
  const std::size_t n = hi - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += b.data.target(b.bag[i]);
  nodes_.push_back({sum / static_cast<double>(n)});
  samples_.push_back(n);
  depth_ = std::max(depth_, depth);

  const bool depth_ok = params_.max_depth == 0 || depth < params_.max_depth;
  if (!depth_ok || n < params_.min_samples_split) return index;

  const auto split = best_split(b, lo, hi);
  if (!split || split->gain <= params_.min_gain) return index;

  // The test is `x[feature] <= threshold` on the actual values, decided
  // once per value code.
  const std::span<const double> values = b.data.values(split->feature);
  const std::span<const std::uint32_t> code = b.data.codes(split->feature);
  for (std::size_t c = 0; c < values.size(); ++c)
    b.goes_left[c] = values[c] <= split->threshold;
  const auto partition = [&](std::vector<std::uint32_t>& rows) {
    std::size_t left = lo, right = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t r = rows[i];
      if (b.goes_left[code[r]])
        rows[left++] = r;
      else
        b.spill[right++] = r;
    }
    std::copy_n(b.spill.begin(), right, rows.begin() + left);
    return left;
  };
  const std::size_t mid = partition(b.bag);
  partition(b.sorted);
  if (mid - lo < params_.min_samples_leaf ||
      hi - mid < params_.min_samples_leaf)
    return index;

  nodes_[index].feature = static_cast<std::uint32_t>(split->feature);
  nodes_[index].threshold = split->threshold;
  build(b, lo, mid, depth + 1);  // pre-order: lands at index + 1
  const std::size_t right = build(b, mid, hi, depth + 1);
  PT_REQUIRE(right <= UINT32_MAX, "tree too large for 32-bit node indices");
  nodes_[index].right = static_cast<std::uint32_t>(right);
  return index;
}

std::optional<RegressionTree::Split> RegressionTree::best_split(
    Builder& b, std::size_t lo, std::size_t hi) const {
  const std::size_t n = hi - lo;
  PT_ASSERT(n >= 2);

  // Candidate features: all, or a uniform subsample of max_features.
  std::vector<std::size_t> features;
  if (params_.max_features == 0 || params_.max_features >= num_features_) {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    features = b.rng.sample_without_replacement(num_features_,
                                                params_.max_features);
  }

  // Parent impurity as sum of squared deviations; gain is the reduction in
  // total SSE, which is equivalent to variance-reduction scoring.
  double parent_sum = 0.0, parent_sq = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double y = b.data.target(b.bag[i]);
    parent_sum += y;
    parent_sq += y * y;
  }
  const double parent_sse =
      parent_sq - parent_sum * parent_sum / static_cast<double>(n);

  Split best;
  for (std::size_t f : features) {
    const std::span<const double> values = b.data.values(f);
    const std::span<const std::uint32_t> code = b.data.codes(f);
    // Group the node's targets by value code, stably: each group keeps
    // target order, which is the order a sort of (value, target) pairs
    // gives, and pairs that sort equal are equal in both.
    std::fill_n(b.ends.begin(), values.size(), 0);
    for (std::size_t i = lo; i < hi; ++i) ++b.ends[code[b.sorted[i]]];
    if (b.ends[code[b.sorted[lo]]] == n) continue;  // constant at this node
    std::size_t at = 0;
    for (std::size_t c = 0; c < values.size(); ++c)
      at = std::exchange(b.ends[c], at) + at;  // ends[c]: start of group c
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t r = b.sorted[i];
      b.grouped[b.ends[code[r]]++] = b.data.target(r);
    }

    // Scan the splits between consecutive non-empty groups, maintaining
    // prefix sums in grouped order.
    double left_sum = 0.0, left_sq = 0.0;
    std::size_t nl = 0, prev = 0;
    for (std::size_t c = 0; c < values.size(); ++c) {
      if (b.ends[c] == nl) continue;  // no row has this value here
      if (nl > 0 && nl >= params_.min_samples_leaf &&
          n - nl >= params_.min_samples_leaf) {
        const auto left_n = static_cast<double>(nl);
        const auto right_n = static_cast<double>(n - nl);
        const double right_sum = parent_sum - left_sum;
        const double right_sq = parent_sq - left_sq;
        const double sse = (left_sq - left_sum * left_sum / left_n) +
                           (right_sq - right_sum * right_sum / right_n);
        const double gain = parent_sse - sse;
        if (gain > best.gain) {
          best.feature = f;
          best.threshold = 0.5 * (values[prev] + values[c]);
          best.gain = gain;
        }
      }
      for (; nl < b.ends[c]; ++nl) {
        const double y = b.grouped[nl];
        left_sum += y;
        left_sq += y * y;
      }
      prev = c;
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
