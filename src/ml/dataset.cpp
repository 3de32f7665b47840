#include "ml/dataset.hpp"

#include "support/error.hpp"

namespace portatune::ml {

Dataset::Dataset(std::size_t num_features,
                 std::vector<std::string> feature_names)
    : num_features_(num_features), feature_names_(std::move(feature_names)) {
  PT_REQUIRE(feature_names_.empty() || feature_names_.size() == num_features_,
             "feature name count must match feature count");
}

void Dataset::add_row(std::span<const double> features, double target) {
  if (num_rows() == 0 && num_features_ == 0) num_features_ = features.size();
  PT_REQUIRE(features.size() == num_features_,
             "feature vector arity does not match dataset");
  features_.insert(features_.end(), features.begin(), features.end());
  targets_.push_back(target);
}

std::string Dataset::feature_name(std::size_t j) const {
  PT_REQUIRE(j < num_features_, "feature index out of range");
  if (j < feature_names_.size()) return feature_names_[j];
  return "x" + std::to_string(j);
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out(num_features_, feature_names_);
  for (std::size_t i : rows) {
    PT_REQUIRE(i < num_rows(), "subset row index out of range");
    out.add_row(row(i), target(i));
  }
  return out;
}

}  // namespace portatune::ml
