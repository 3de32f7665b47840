// The one options type every search takes.
//
// The paper's searches share one budget n_max, one CRN seed and one
// evaluate-and-account step (tuner/search_loop.hpp): RS, RS_p
// (Algorithm 1), RS_b (Algorithm 2), the model-free controls, the
// adaptive search, the six heuristics of heuristics.hpp and
// TuningSession. They are all configured by SearchOptions; each field
// says which of them read it, and every other search ignores it. The
// defaults are the Sec. IV-D protocol: n_max = 100, N = 10 000,
// delta = 20 % and the shared seed 20160401. A search's model (RS_p's
// and RS_b's surrogate, a heuristic's seeding surrogate, a session's
// warm model) is an argument of the search, not an option.
//
// apps::TuningConfig (apps/tuning_config.hpp) is the validated builder
// drivers produce these from; tests and benches also set them directly.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ml/forest.hpp"
#include "support/cancellation.hpp"
#include "tuner/guard.hpp"
#include "tuner/resilience.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// stop_reason() recorded when a search is stopped by cooperative
/// cancellation (graceful shutdown). Resume paths clear it: a cancelled
/// search is interrupted, not finished.
inline constexpr const char* kCancelledStopReason =
    "cancelled: shutdown requested";

/// Snapshot of an in-progress search: everything needed to resume it
/// exactly — the partial trace, the number of draws consumed (replaying
/// them against the same seed reproduces the draw source's state), and
/// the quarantined configuration hashes of a ResilientEvaluator.
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

struct SearchOptions {
  /// n_max, the evaluation budget. Every search; failed evaluations do
  /// not count toward it.
  std::size_t max_evals = 100;
  /// The shared stream seed (CRN, Sec. IV-D). Every search.
  std::uint64_t seed = 20160401;
  /// N, the candidate pool: RS_p's cutoff estimate, RS_b, warm sessions
  /// and the adaptive search.
  std::size_t pool_size = 10000;
  /// delta, in percent: RS_p and RS_pf prune above this quantile.
  double delta_percent = 20.0;
  /// Random-forest hyperparameters (the fit seeds them with `seed`): the
  /// experiment's surrogate and the adaptive search's refits.
  ml::ForestParams forest{};
  /// Abort (with a diagnostic stop_reason) once failures exceed this.
  /// Every search.
  FailureBudget failure_budget{};
  /// Surrogate-trust guard (tuner/guard.hpp): RS_p and RS_b only, and
  /// inert until enabled.
  GuardOptions guard{};
  /// Cooperative cancellation, checked at window boundaries by every
  /// search. A cancelled search stops cleanly (kCancelledStopReason on
  /// the trace, final checkpoint taken) so the run can be resumed.
  CancellationToken cancel{};
  /// RS: invoke on_checkpoint after every `checkpoint_every` recorded
  /// evaluations (0 disables the periodic snapshots), and once more when
  /// the search returns. The callback owns persistence.
  std::size_t checkpoint_every = 0;
  std::function<void(const SearchCheckpoint&)> on_checkpoint;
  /// RS and TuningSession: resume from a snapshot. The trace is
  /// continued, the draw source fast-forwarded by `draws`, and (when the
  /// evaluator stack holds a ResilientEvaluator) the quarantine restored.
  /// The same seed — and for a warm session the same model — must be
  /// passed. Must outlive the call.
  const SearchCheckpoint* resume = nullptr;
  /// RS_p: stop after this many stream draws, pruned ones included.
  std::size_t max_draws = 10000;
  /// Genetic search: population size (>= 2).
  std::size_t population = 20;
  /// Adaptive search: target evaluations between refits.
  std::size_t refit_interval = 10;
  /// Adaptive search: each target row enters the training set this many
  /// times (cheap importance weighting against the source rows).
  std::size_t target_weight = 3;
};

}  // namespace portatune::tuner
