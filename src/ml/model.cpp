#include "ml/model.hpp"

#include "support/error.hpp"

namespace portatune::ml {

void Regressor::predict_rows(std::span<const double> rows, std::size_t cols,
                             std::span<double> out) const {
  PT_REQUIRE(rows.size() == cols * out.size(), "row matrix shape mismatch");
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = predict(rows.subspan(i * cols, cols));
}

std::vector<double> Regressor::predict_batch(const Dataset& rows) const {
  std::vector<double> out(rows.num_rows());
  predict_rows(rows.matrix(), rows.num_features(), out);
  return out;
}

}  // namespace portatune::ml
