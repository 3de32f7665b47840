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
// All functions are deterministic given their seeds; the shared-seed
// ConfigStream implements the common-random-numbers protocol of Sec. IV-D.
// Each one is a thin configuration of the same evaluation-window loop
// (tuner/search_loop.hpp) and differs only in where its next configuration
// comes from, so all of them evaluate in the evaluator's preferred windows,
// account results strictly in draw order (bit-identical traces at any
// thread count), honour the failure budget, and stop at the next window
// boundary once `cancel` fires.
#pragma once

#include <functional>
#include <utility>

#include "ml/model.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/resilience.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Snapshot of an in-progress random search: everything needed to resume
/// it exactly — the partial trace, the number of stream draws consumed
/// (replaying them against the same seed reproduces the sampler state),
/// and the quarantined configuration hashes of a ResilientEvaluator.
/// Serialized by save_checkpoint_csv / load_checkpoint_csv.
struct SearchCheckpoint {
  SearchTrace trace;
  std::size_t draws = 0;  ///< draws accounted (the consumed watermark)
  std::vector<std::uint64_t> quarantine;
  /// Suggestions handed out by TuningSession::suggest() but not yet
  /// report()ed at snapshot time: (config hash, draw index) pairs. The
  /// draws are counted in `draws` (the stream already produced them), so
  /// persisting the pairs is what lets a resumed session still accept
  /// report() for them. Always empty for the free-function searches.
  std::vector<std::pair<std::uint64_t, std::size_t>> pending;
};

struct RandomSearchOptions : SearchCommon {
  /// Invoke on_checkpoint after every `checkpoint_every` recorded
  /// evaluations (0 disables the periodic snapshots), and once more when
  /// the search returns. The callback owns persistence.
  std::size_t checkpoint_every = 0;
  std::function<void(const SearchCheckpoint&)> on_checkpoint;
  /// Resume from a snapshot: the trace is continued, the stream is
  /// fast-forwarded by `draws`, and (when `eval` is a ResilientEvaluator)
  /// the quarantine is restored. The same seed must be passed.
  const SearchCheckpoint* resume = nullptr;
};

/// RS: evaluate the first max_evals draws of the stream.
SearchTrace random_search(Evaluator& eval, const RandomSearchOptions& opt);

/// Evaluate an explicit configuration order (used to replay a source
/// machine's RS order on a target machine). Failed evaluations are
/// skipped and do not count toward max_evals, but do consume the
/// failure budget.
SearchTrace replay_search(Evaluator& eval,
                          std::span<const ParamConfig> order,
                          std::size_t max_evals,
                          std::string algorithm_label = "RS",
                          const FailureBudget& budget = {},
                          CancellationToken cancel = {});

struct PrunedSearchOptions : SearchCommon {
  std::size_t pool_size = 10000;   ///< N, for the cutoff quantile estimate
  double delta_percent = 20.0;     ///< delta: prune above this quantile
  std::size_t max_draws = 10000;   ///< stop after this many stream draws
};

/// RS_p (Algorithm 1). `model` must be fitted on the source machine data.
/// With `opt.guard.enabled` the pruning cutoff follows the TrustMonitor:
/// strict while Trusted, relaxed to the midpoint quantile while Degraded,
/// and no pruning at all once Disabled (trust collapse or starvation
/// cap) — see tuner/guard.hpp.
SearchTrace pruned_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const PrunedSearchOptions& opt);

struct BiasedSearchOptions : SearchCommon {
  std::size_t pool_size = 10000; ///< N
};

/// RS_b (Algorithm 2). `model` must be fitted on the source machine data.
/// With `opt.guard.enabled` the evaluation order follows the
/// TrustMonitor: model-ranked while Trusted, re-ranked by a once-refitted
/// hybrid forest (guard.refit_after target rows accumulated) on
/// degradation, and falling back to draw order once Disabled.
SearchTrace biased_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const BiasedSearchOptions& opt);

/// RS_pf: model-free pruning over the source trace (delta in percent).
SearchTrace model_free_pruned(Evaluator& eval, const SearchTrace& source,
                              double delta_percent,
                              std::size_t max_evals = SIZE_MAX,
                              const FailureBudget& budget = {},
                              CancellationToken cancel = {});

/// RS_bf: model-free biasing over the source trace.
SearchTrace model_free_biased(Evaluator& eval, const SearchTrace& source,
                              std::size_t max_evals = SIZE_MAX,
                              const FailureBudget& budget = {},
                              CancellationToken cancel = {});

}  // namespace portatune::tuner
