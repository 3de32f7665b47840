#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace portatune::ml {
namespace {

Dataset small() {
  Dataset d(2, {"a", "b"});
  d.add_row(std::vector<double>{1, 2}, 10);
  d.add_row(std::vector<double>{3, 4}, 20);
  d.add_row(std::vector<double>{5, 6}, 30);
  return d;
}

TEST(Dataset, BasicAccessors) {
  const auto d = small();
  EXPECT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_FALSE(d.empty());
  EXPECT_DOUBLE_EQ(d.row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(d.target(2), 30.0);
  EXPECT_EQ(d.feature_name(0), "a");
}

TEST(Dataset, UnnamedFeaturesGetPlaceholders) {
  Dataset d(1);
  d.add_row(std::vector<double>{1}, 1);
  EXPECT_EQ(d.feature_name(0), "x0");
  EXPECT_THROW(d.feature_name(1), Error);
}

TEST(Dataset, ArityEnforced) {
  Dataset d = small();
  EXPECT_THROW(d.add_row(std::vector<double>{1}, 0), Error);
}

TEST(Dataset, FirstRowFixesArity) {
  Dataset d;
  d.add_row(std::vector<double>{1, 2, 3}, 0);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_THROW(d.add_row(std::vector<double>{1}, 0), Error);
}

TEST(Dataset, SubsetSelectsRows) {
  const auto d = small();
  const std::vector<std::size_t> rows{2, 0};
  const auto s = d.subset(rows);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(s.target(0), 30.0);
  EXPECT_DOUBLE_EQ(s.target(1), 10.0);
  EXPECT_THROW(d.subset(std::vector<std::size_t>{5}), Error);
}

}  // namespace
}  // namespace portatune::ml
