// Tabular regression dataset (row-major features + targets).
//
// This is the `T_a = {(x_1,y_1),...,(x_l,y_l)}` object of the paper: each
// row is a parameter configuration encoded as doubles, the target is the
// run time measured on the source machine.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace portatune::ml {

class Dataset {
 public:
  Dataset() = default;

  /// Construct with named feature columns (names optional; used by tree
  /// rendering for Fig. 2-style output).
  explicit Dataset(std::size_t num_features,
                   std::vector<std::string> feature_names = {});

  std::size_t num_rows() const noexcept { return targets_.size(); }
  std::size_t num_features() const noexcept { return num_features_; }
  bool empty() const noexcept { return targets_.empty(); }

  /// Append one (x, y) pair; x must have num_features entries.
  void add_row(std::span<const double> features, double target);

  std::span<const double> row(std::size_t i) const {
    return {features_.data() + i * num_features_, num_features_};
  }
  /// Every row's features, row-major (num_rows x num_features).
  std::span<const double> matrix() const noexcept { return features_; }
  double target(std::size_t i) const { return targets_[i]; }
  std::span<const double> targets() const noexcept { return targets_; }

  const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }
  /// Name of feature `j`, or "x<j>" when unnamed.
  std::string feature_name(std::size_t j) const;

  /// Subset by row indices.
  Dataset subset(std::span<const std::size_t> rows) const;

 private:
  std::size_t num_features_ = 0;
  std::vector<double> features_;  // row-major, num_rows * num_features
  std::vector<double> targets_;
  std::vector<std::string> feature_names_;
};

}  // namespace portatune::ml
