// The full cross-machine transfer experiment protocol (Sec. IV-D).
//
// Given a problem instantiated on a source machine gamma_a and a target
// machine gamma_b:
//   1. run RS on gamma_a                            -> T_a
//   2. replay the same draw order with RS on gamma_b (common random
//      numbers) -> the reference trace,
//   3. fit the random-forest surrogate M_a on T_a,
//   4. run RS_p and RS_b on gamma_b guided by M_a,
//   5. run the model-free controls RS_pf and RS_bf,
//   6. compute correlations (Fig. 1 / third columns of Figs. 3-5) and the
//      speedups of Table IV/V.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/metrics.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Persistence hooks for crash-safe experiments (tuner/run_journal.hpp).
/// The engine runs its searches as named phases — "source_rs",
/// "target_rs", "pruned", "biased", "pruned_mf", "biased_mf" — and calls
/// these hooks at phase boundaries. All hooks are optional; the default
/// (empty) hooks reproduce the unjournaled behaviour exactly.
struct ExperimentHooks {
  /// Called before a phase runs. Returning a trace skips the phase and
  /// uses the restored trace instead (its guard transitions are not
  /// replayed onto guard_log — they were logged by the original run).
  std::function<std::optional<SearchTrace>(const std::string& phase)>
      restore_phase;
  /// Called after a phase completes normally (not when it was restored,
  /// cancelled, or skipped). The hook owns persistence.
  std::function<void(const std::string& phase, const SearchTrace& trace)>
      phase_done;
};

/// One experiment cell's options: every search reads its SearchOptions
/// fields (max_evals is n_max for each search but the model-free
/// controls, which re-evaluate all of T_a's qualifying configurations).
///   * checkpoint_every, on_checkpoint and resume apply to the long
///     source RS phase only, so it can be checkpointed mid-flight.
///   * forest, seeded with the CRN seed, fits the surrogate M_a.
///   * guard applies to RS_p / RS_b; the engine wires refit_source to
///     T_a, refits with the cell's forest, and captures the guard
///     timelines on the result's guard_log (refit_source, refit_forest
///     and on_transition set here are overridden).
///   * cancel is threaded into every phase's search. Once cancelled the
///     experiment stops at the next phase/window boundary with
///     result.interrupted = true (see TransferExperimentResult).
struct ExperimentSettings : SearchOptions {
  /// Crash-safety hooks (empty = plain in-memory run).
  ExperimentHooks hooks{};
};

struct TransferExperimentResult {
  SearchTrace source_rs;   ///< RS on gamma_a (this is T_a)
  SearchTrace target_rs;   ///< RS on gamma_b (CRN replay of the same order)
  SearchTrace pruned;      ///< RS_p on gamma_b
  SearchTrace biased;      ///< RS_b on gamma_b
  SearchTrace pruned_mf;   ///< RS_pf on gamma_b
  SearchTrace biased_mf;   ///< RS_bf on gamma_b

  Speedups pruned_speedup, biased_speedup;
  Speedups pruned_mf_speedup, biased_mf_speedup;

  /// Correlation of the shared RS configurations' run times on the two
  /// machines (rho_p, rho_s) and the top-20 % set overlap.
  double pearson = 0.0;
  double spearman = 0.0;
  double top_overlap = 0.0;

  /// Failure accounting summed over all six traces (attempts, failures by
  /// kind, retry/backoff overhead). Per-trace detail is available from
  /// each trace's failure_stats().
  FailureStats failures;
  /// Searches that aborted on their failure budget, as
  /// "algorithm: reason" diagnostics (empty in a healthy run).
  std::vector<std::string> aborted_searches;

  /// Guard state transitions of the guarded searches, in firing order, as
  /// "algorithm: from->to @evals (reason, trust=x)" lines (empty when the
  /// guard is off or never fired).
  std::vector<std::string> guard_log;

  /// Observability snapshot taken when the experiment finished: every
  /// counter/gauge/histogram of the active metrics registry (model-fit
  /// cost, prune rates, cache traffic, per-evaluation latency, ...), so
  /// each experiment report carries its own telemetry.
  obs::MetricsSnapshot metrics;

  /// True when the experiment was stopped by cooperative cancellation
  /// before all six phases finished. The traces up to (and including) the
  /// partially-run phase are populated; the derived metrics above are NOT
  /// computed — resume the run and let finalize_transfer_result() produce
  /// them once every phase is complete.
  bool interrupted = false;
};

/// Run the full protocol. `source` and `target` must expose identical
/// parameter spaces (the paper's fixed-D assumption); this is enforced.
TransferExperimentResult run_transfer_experiment(
    Evaluator& source, Evaluator& target, const ExperimentSettings& settings);

/// Steps 6-8 of the protocol: compute the speedups, the cross-machine
/// correlations, and the failure accounting from the six traces already
/// on `out`, and attach the current metrics snapshot. Pure function of the
/// traces (plus the process-wide registry), so a journal-restored cell
/// recomputes exactly what the uninterrupted run would have reported.
void finalize_transfer_result(TransferExperimentResult& out);

/// One independent cell of a Table IV/V-style experiment grid.
///
/// The factories run on the worker thread that executes the job, so every
/// job owns a private evaluator stack for its whole lifetime — nothing is
/// shared between concurrent cells except the process-wide metrics
/// registry (whose instruments are atomic and whose snapshots therefore
/// aggregate all in-flight cells). Jobs must NOT install per-job
/// ScopedMetricsRedirects: the current-registry pointer is process-global,
/// and concurrent redirects would clobber each other.
struct ExperimentJob {
  std::function<EvaluatorPtr()> make_source;
  std::function<EvaluatorPtr()> make_target;
  ExperimentSettings settings;
  std::string label;  ///< diagnostic tag, e.g. "MM idataplex->e5"
};

/// Run every job, fanning independent cells out on ThreadPool::global():
/// at most `threads` cells run at once, the calling thread included
/// (0 = the pool's width). Values above the pool width + 1 add no
/// concurrency; latency-bound evaluations overlap through each stack's
/// `eval_threads` instead. Results come back in job order regardless of
/// completion order; each result is bit-identical to what a serial
/// run_transfer_experiment of the same job would produce (searches are
/// seed-deterministic and jobs share no mutable search state).
/// `threads == 1` runs the jobs inline on the calling thread.
std::vector<TransferExperimentResult> run_transfer_experiments(
    std::span<const ExperimentJob> jobs, std::size_t threads = 0);

}  // namespace portatune::tuner
