// Abstract regressor interface.
//
// The surrogate performance model M of the paper: fit on T_a, predict run
// times of unseen configurations. All portatune surrogates (random forest,
// single tree, kNN, ridge) implement this interface, which is what the
// transfer-accelerated searches consume.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace portatune::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fit the model on the training data. Must be called before predict().
  virtual void fit(const Dataset& train) = 0;

  /// Predict the target for one feature vector.
  virtual double predict(std::span<const double> x) const = 0;

  /// Predict every row of the row-major matrix `rows` (`cols` features
  /// per row) into `out`, one slot per row; out[i] equals predict() of
  /// row i exactly. The one batch entry point: the default loops over
  /// predict(), the random forest walks its trees over row blocks. It
  /// runs serially on the calling thread; a caller with many rows fans
  /// out over row blocks itself (rank_pool).
  virtual void predict_rows(std::span<const double> rows, std::size_t cols,
                            std::span<double> out) const;

  /// predict_rows() over a dataset's rows.
  std::vector<double> predict_batch(const Dataset& rows) const;

  virtual bool is_fitted() const noexcept = 0;

  /// Short human-readable identifier ("random_forest", "knn", ...).
  virtual std::string name() const = 0;
};

using RegressorPtr = std::unique_ptr<Regressor>;

}  // namespace portatune::ml
