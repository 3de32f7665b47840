// Cross-machine surrogate transfer — the paper's headline method.
//
// fit_surrogate() turns a source-machine search trace T_a into the
// surrogate performance model M_a; the RS_p / RS_b searches then consume
// that model on the target machine. This header is the minimal public
// "transfer API": trace in, fitted model out.
#pragma once

#include "ml/forest.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Fit the paper's random-forest surrogate on a source trace.
ml::RegressorPtr fit_surrogate(const SearchTrace& source,
                               const ParamSpace& space,
                               const ml::ForestParams& params = {});

/// Training set mixing source rows (when `source` is non-null) with the
/// target rows repeated `target_weight` times — cheap importance
/// weighting of on-target evidence against the source prior. Shared by
/// the adaptive search's periodic refits and the guard's rescue refit.
ml::Dataset hybrid_dataset(const SearchTrace* source,
                           const SearchTrace& target,
                           const ParamSpace& space,
                           std::size_t target_weight);

/// Fit a random forest on hybrid_dataset(). Requires at least one row
/// between the two traces.
ml::RegressorPtr fit_hybrid_surrogate(const SearchTrace* source,
                                      const SearchTrace& target,
                                      const ParamSpace& space,
                                      std::size_t target_weight,
                                      const ml::ForestParams& params = {});

}  // namespace portatune::tuner
