// Adaptive (online-refit) transfer search — an extension of the paper's
// RS_b along its own future-work axis.
//
// RS_b trusts the source-machine surrogate for all n_max evaluations.
// When source and target rank configurations differently, that trust is
// misplaced; the fix is the obvious one: every `refit_interval` target
// evaluations, refit the surrogate on source data *plus* everything
// measured on the target so far (optionally weighting target rows more),
// and re-rank the remaining candidate pool. With refit_interval >= n_max
// this degenerates to exactly RS_b; with source data excluded it becomes
// a from-scratch model-based search on the target.
#pragma once

#include "tuner/evaluator.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Biased search with periodic refits on accumulated target data: reads
/// max_evals, seed, pool_size, forest, refit_interval, target_weight,
/// failure_budget and cancel. `source` may be empty (pure online
/// model-based search).
SearchTrace adaptive_biased_search(Evaluator& target,
                                   const SearchTrace& source,
                                   const SearchOptions& opt);

}  // namespace portatune::tuner
