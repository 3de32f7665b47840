// Guarded transfer: online surrogate-trust monitoring.
//
// A surrogate fitted on a dissimilar source machine (the X-Gene rows of
// Tables IV/V, rho_s far below the Westmere<->Sandybridge 0.8+) can
// actively mislead RS_p / RS_b: pruning the true optimum, or biasing the
// search toward configurations that are slow on the target. TrustMonitor
// closes that loop. It maintains a sliding-window Spearman rank
// correlation between the surrogate's *predicted* run times and the run
// times actually *observed* on the target machine, plus a consecutive-
// prune counter, and drives a three-state machine:
//
//   Trusted   — the model's ranking agrees with reality; the search uses
//               it exactly as the unguarded variant would (bit-identical
//               traces when the guard never leaves this state).
//   Degraded  — windowed trust fell below `floor`; RS_p relaxes its
//               pruning cutoff to the midpoint quantile, RS_b refits a
//               hybrid forest on accumulated target observations (once,
//               when refit_after allows) and re-ranks the remaining pool.
//   Disabled  — trust fell below `disable_floor`, or consecutive prunes
//               exceeded the starvation cap, or a refit's trust collapsed
//               again. Pruning stops entirely and biasing falls back to
//               draw order: the search degenerates to plain RS from here
//               on, so a hostile model can never starve it. Disabled is
//               sticky (except through an allowed refit).
//
// Every transition is emitted as a Warn "guard.state" event plus
// guard.trust / guard.transitions metrics, and recorded on an in-memory
// timeline the experiment engine and tests read back.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "ml/forest.hpp"

namespace portatune::tuner {

class SearchTrace;

enum class GuardState : int { Trusted = 0, Degraded = 1, Disabled = 2 };

const char* to_string(GuardState s) noexcept;

/// One guard state transition, in search order.
struct GuardTransition {
  GuardState from = GuardState::Trusted;
  GuardState to = GuardState::Trusted;
  std::size_t evals = 0;   ///< trace size when the transition fired
  double trust = 0.0;      ///< windowed rank correlation at that moment
  std::string reason;      ///< "trust-floor" | "trust-collapse" |
                           ///< "starvation" | "refit" | "recovered"
};

/// Guard configuration, carried by SearchOptions::guard and read by RS_p
/// and RS_b only. Disabled by default: the guarded searches are
/// bit-identical to their unguarded selves until `enabled` is set.
struct GuardOptions {
  bool enabled = false;
  /// Sliding window of (predicted, observed) pairs the trust statistic is
  /// computed over.
  std::size_t window = 25;
  /// No verdict before this many pairs: a handful of observations cannot
  /// convict (or acquit) the model.
  std::size_t min_observations = 10;
  /// Windowed Spearman below this: Degraded (relax pruning / refit bias).
  double floor = 0.2;
  /// Windowed Spearman below this: Disabled (stop trusting entirely).
  double disable_floor = -0.2;
  /// Hard cap on consecutive pruned draws before pruning is forcibly
  /// disabled, independent of trust — the starvation guarantee.
  std::size_t max_consecutive_prunes = 200;
  /// RS_b: refit a hybrid forest on accumulated target observations once
  /// this many are available and trust has left Trusted (0 = never).
  /// At most one refit per search; a second collapse disables the model.
  std::size_t refit_after = 0;
  /// Each target row enters the hybrid refit training set this many times
  /// (importance weighting against the source rows).
  std::size_t refit_target_weight = 3;
  /// Source trace mixed into the hybrid refit (nullptr = target-only).
  /// Must outlive the search when set.
  const SearchTrace* refit_source = nullptr;
  ml::ForestParams refit_forest{};
  /// Evaluation-window width used while the guard is enabled. Fixed (not
  /// the evaluator's preferred batch) so the interleaving of trust
  /// updates and pruning decisions is identical at every thread count —
  /// this is what keeps serial-vs-parallel trace parity with the guard
  /// firing mid-search.
  std::size_t sync_window = 8;
  /// Invoked on every transition (after the event/metric emission); used
  /// by the experiment engine to assemble per-search guard timelines.
  std::function<void(const GuardTransition&)> on_transition;
};

/// Online trust monitor for one guarded search. Not thread-safe: searches
/// feed it from their (sequential) accounting loop only.
class TrustMonitor {
 public:
  /// `label` names the consuming search in events ("RS_p", "RS_b", ...).
  TrustMonitor(const GuardOptions& opt, std::string label);

  /// Record one (predicted, observed) pair and re-evaluate trust.
  /// `evals` is the trace size after the observation (for the timeline).
  void observe(double predicted, double observed_seconds, std::size_t evals);

  /// Account one pruned draw. Returns true when this prune newly tripped
  /// the starvation cap (the caller must stop pruning; the monitor has
  /// already transitioned to Disabled).
  bool note_prune(std::size_t evals);
  /// Account one draw that passed the pruning filter.
  void note_pass() noexcept { consecutive_prunes_ = 0; }

  /// Windowed Spearman rank correlation of predicted vs observed; 1.0
  /// until min_observations pairs have been seen (no evidence = trust).
  double trust() const;
  GuardState state() const noexcept { return state_; }
  std::size_t observations() const noexcept { return window_.size(); }
  std::size_t consecutive_prunes() const noexcept {
    return consecutive_prunes_;
  }

  /// A refit consumed the accumulated evidence: clear the window, return
  /// to Trusted, and burn the one refit allowance. Records a "refit"
  /// transition.
  void note_refit(std::size_t evals);
  bool refit_spent() const noexcept { return refit_spent_; }

  const std::vector<GuardTransition>& timeline() const noexcept {
    return timeline_;
  }

 private:
  void transition(GuardState to, std::size_t evals, const char* reason);

  GuardOptions opt_;
  std::string label_;
  GuardState state_ = GuardState::Trusted;
  std::deque<std::pair<double, double>> window_;  ///< (predicted, observed)
  std::size_t consecutive_prunes_ = 0;
  bool refit_spent_ = false;
  std::vector<GuardTransition> timeline_;
};

}  // namespace portatune::tuner
