// Plain random search without replacement (the paper's "RS") and its
// transfer-accelerated variants:
//
//   RS    — Sec. II: uniform sampling without replacement from D.
//   RS_p  — Algorithm 1: a surrogate fitted on the source machine's data
//           prunes configurations predicted slower than the delta-quantile
//           cutoff before they are ever run on the target machine.
//   RS_b  — Algorithm 2: the surrogate ranks a large pool of N candidate
//           configurations; the target machine evaluates them in ascending
//           predicted-run-time order.
//   RS_pf — model-free pruning: the cutoff comes from the source run
//           times themselves; only source configurations that beat it are
//           re-evaluated, in source order.
//   RS_bf — model-free biasing: the source configurations are re-evaluated
//           in ascending order of their *source* run times.
//
// All of them take SearchOptions (tuner/search_options.hpp); RS_p and
// RS_b take their surrogate as an argument. All functions are
// deterministic given their seeds; the shared-seed ConfigStream
// implements the common-random-numbers protocol of Sec. IV-D.
// Each one is a thin configuration of the same evaluation-window loop
// (tuner/search_loop.hpp) and differs only in where its next configuration
// comes from, so all of them evaluate in the evaluator's preferred windows,
// account results strictly in draw order (bit-identical traces at any
// thread count), honour the failure budget, and stop at the next window
// boundary once `cancel` fires.
#pragma once

#include <span>
#include <string>

#include "ml/model.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// RS: evaluate the first max_evals draws of the stream.
SearchTrace random_search(Evaluator& eval, const SearchOptions& opt);

/// Evaluate an explicit configuration order (used to replay a source
/// machine's RS order on a target machine). Failed evaluations are
/// skipped and do not count toward max_evals, but do consume the
/// failure budget.
SearchTrace replay_search(Evaluator& eval,
                          std::span<const ParamConfig> order,
                          const SearchOptions& opt,
                          std::string algorithm_label = "RS");

/// RS_p (Algorithm 1). `model` must be fitted on the source machine data.
/// With `opt.guard.enabled` the pruning cutoff follows the TrustMonitor:
/// strict while Trusted, relaxed to the midpoint quantile while Degraded,
/// and no pruning at all once Disabled (trust collapse or starvation
/// cap) — see tuner/guard.hpp.
SearchTrace pruned_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const SearchOptions& opt);

/// RS_b (Algorithm 2). `model` must be fitted on the source machine data.
/// With `opt.guard.enabled` the evaluation order follows the
/// TrustMonitor: model-ranked while Trusted, re-ranked by a once-refitted
/// hybrid forest (guard.refit_after target rows accumulated) on
/// degradation, and falling back to draw order once Disabled.
SearchTrace biased_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const SearchOptions& opt);

/// RS_pf: model-free pruning over the source trace. Only source
/// configurations faster than its delta_percent quantile are
/// re-evaluated, in source order.
SearchTrace model_free_pruned(Evaluator& eval, const SearchTrace& source,
                              const SearchOptions& opt);

/// RS_bf: model-free biasing over the source trace.
SearchTrace model_free_biased(Evaluator& eval, const SearchTrace& source,
                              const SearchOptions& opt);

}  // namespace portatune::tuner
