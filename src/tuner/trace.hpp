// Search trace: the chronological record of one autotuning run.
//
// Everything downstream — T_a for surrogate fitting, the best-so-far
// curves of Figs. 3–5, and the performance / search-time speedup metrics
// of Sec. IV-D — is computed from these traces.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/param.hpp"

namespace portatune::tuner {

/// Failure accounting of one search run: every evaluation attempt is
/// counted, successful or not, so a trace reports how much of the budget
/// failures consumed (Sec. "Failure semantics" of DESIGN.md).
struct FailureStats {
  std::size_t attempts = 0;       ///< backend attempts, incl. retries
  std::size_t failures = 0;       ///< evaluations that returned !ok
  std::size_t transient = 0;      ///< ... classified transient
  std::size_t deterministic = 0;  ///< ... classified deterministic
  std::size_t timeouts = 0;       ///< ... classified timeout
  double overhead_seconds = 0.0;  ///< retry/backoff/timeout search time

  FailureStats& operator+=(const FailureStats& o) {
    attempts += o.attempts;
    failures += o.failures;
    transient += o.transient;
    deterministic += o.deterministic;
    timeouts += o.timeouts;
    overhead_seconds += o.overhead_seconds;
    return *this;
  }
};

struct TraceEntry {
  ParamConfig config;
  double seconds = 0.0;       ///< measured run time of this configuration
  double elapsed = 0.0;       ///< cumulative search time after this eval
  std::size_t draw_index = 0; ///< position in the sampling stream (CRN)
  /// Wall-clock time the entry was recorded, in seconds since the Unix
  /// epoch (0 when unknown).
  /// `elapsed` is the *simulated* search clock; this is the real one, so
  /// exports can reconstruct actual timelines.
  double wall_unix = 0.0;
};

class SearchTrace {
 public:
  SearchTrace() = default;
  SearchTrace(std::string algorithm, std::string problem, std::string machine)
      : algorithm_(std::move(algorithm)),
        problem_(std::move(problem)),
        machine_(std::move(machine)) {}

  /// Record a successful evaluation, wall-clock stamped at call time
  /// (restore_entry keeps a saved stamp).
  void record(ParamConfig config, double seconds, std::size_t draw_index);
  /// Account search time that produced no evaluation (e.g. pruned draws,
  /// model fitting); advances the search clock.
  void add_overhead(double seconds) { clock_ += seconds; }

  /// Account one evaluation result (success or failure): attempt/failure
  /// counters plus any retry/backoff/timeout overhead on the search clock.
  /// Searches call this for *every* EvalResult, then record() on success.
  void note_result(const EvalResult& r);

  const FailureStats& failure_stats() const noexcept { return failures_; }

  /// Why the search stopped early (failure budget exhausted, ...); empty
  /// for a normal completion. Emits a Warn "search.abort" event and
  /// flushes the default sink, so even a truncated run leaves a readable
  /// log of why it stopped.
  void set_stop_reason(std::string reason);
  const std::string& stop_reason() const noexcept { return stop_reason_; }

  // -- Checkpoint restore support (persistence.cpp) ---------------------
  /// Append an entry with its original elapsed timestamp (does not
  /// recompute the clock like record() does). `wall_unix` is the saved
  /// wall-clock stamp (0 when unknown).
  void restore_entry(ParamConfig config, double seconds, double elapsed,
                     std::size_t draw_index, double wall_unix);
  void restore_failure_stats(const FailureStats& stats) { failures_ = stats; }
  /// Restore a checkpointed stop reason without re-announcing the abort
  /// (no event, no flush — it already happened when the run aborted).
  void restore_stop_reason(std::string reason) {
    stop_reason_ = std::move(reason);
  }
  /// Restore the search clock exactly (it may exceed the last entry's
  /// elapsed when trailing failures charged overhead).
  void restore_clock(double clock) { clock_ = clock; }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  const TraceEntry& entry(std::size_t i) const { return entries_.at(i); }
  const std::vector<TraceEntry>& entries() const noexcept { return entries_; }

  const std::string& algorithm() const noexcept { return algorithm_; }
  const std::string& problem() const noexcept { return problem_; }
  const std::string& machine() const noexcept { return machine_; }

  /// Best run time found so far (+inf when empty).
  double best_seconds() const;
  /// The configuration achieving best_seconds(); throws when empty.
  const ParamConfig& best_config() const;
  /// Elapsed search time at the moment the final best was first reached.
  double time_to_best() const;
  /// Elapsed search time when a run time <= threshold was first reached;
  /// +inf if the trace never reaches it.
  double time_to_reach(double threshold) const;
  /// Total search time (all evaluations + overhead).
  double total_time() const;

  /// (elapsed, best-so-far) series for plotting Figs. 3–5 curves.
  std::vector<std::pair<double, double>> best_curve() const;

  /// Convert to a training set T_a for the surrogate: features are the
  /// parameter *values*, the target is the run time.
  ml::Dataset to_dataset(const ParamSpace& space) const;

 private:
  std::string algorithm_, problem_, machine_;
  std::vector<TraceEntry> entries_;
  double clock_ = 0.0;  ///< cumulative search time
  FailureStats failures_;
  std::string stop_reason_;
};

}  // namespace portatune::tuner
