// Resilient evaluation: the fault-tolerance layer between search
// algorithms and evaluation backends.
//
// Real autotuning evaluations fail routinely — per-variant compilation
// crashes, kernels segfault or hang on bad tile/unroll combinations, and
// measurements spike under system noise. This header provides:
//
//   * RetryPolicy / ResilientEvaluator — a decorator that retries
//     transient failures with exponential backoff, enforces a wall-clock
//     deadline per attempt (reporting attempts that hang past it),
//     classifies failures (transient vs. deterministic vs. timeout), and
//     quarantines configurations known to fail deterministically so they
//     are never re-evaluated.
//   * FailureBudget / FailureBudgetTracker — a bound on consecutive and
//     total failed evaluations threaded through every search algorithm,
//     so a persistently failing evaluator terminates the search with a
//     diagnostic instead of silently scanning the whole space.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tuner/evaluator.hpp"

namespace portatune {
class ThreadPool;
}

namespace portatune::tuner {

/// Bound on failed evaluations a search may absorb before aborting.
/// Defaults are generous but finite: a dead evaluator stops the search
/// after max_consecutive failures instead of draining the draw budget.
struct FailureBudget {
  std::size_t max_consecutive = 50;  ///< abort after this many in a row
  std::size_t max_total = 1000;      ///< abort after this many overall
};

/// Tracks a search's failure budget. Searches call note() with every
/// evaluation result; once it returns true (budget newly exhausted) the
/// search must stop and record reason() on its trace.
class FailureBudgetTracker {
 public:
  explicit FailureBudgetTracker(const FailureBudget& budget)
      : budget_(budget) {}

  /// Account one evaluation; returns true when this result exhausted the
  /// budget (the caller should abort the search).
  bool note(const EvalResult& r) {
    if (r.ok) {
      consecutive_ = 0;
      return false;
    }
    ++consecutive_;
    ++total_;
    return exhausted();
  }

  bool exhausted() const noexcept {
    return consecutive_ >= budget_.max_consecutive ||
           total_ >= budget_.max_total;
  }

  std::size_t consecutive_failures() const noexcept { return consecutive_; }
  std::size_t total_failures() const noexcept { return total_; }

  /// Seed the total-failure counter from a restored checkpoint so a
  /// resumed search aborts at the same point an uninterrupted one would.
  /// Checkpoints are taken right after a successful evaluation, so the
  /// consecutive streak restarts at zero.
  void restore_total(std::size_t total) noexcept { total_ = total; }

  /// Diagnostic for SearchTrace::set_stop_reason.
  std::string reason() const;

 private:
  FailureBudget budget_;
  std::size_t consecutive_ = 0;
  std::size_t total_ = 0;
};

/// Retry / timeout policy of a ResilientEvaluator.
struct RetryPolicy {
  /// Attempts per evaluate() call (first try included). Only transient
  /// failures are retried; deterministic failures and timeouts are not.
  std::size_t max_attempts = 3;
  /// Backoff charged before the second attempt, in seconds; doubles every
  /// further retry (capped). Charged to EvalResult::overhead_seconds so
  /// search-time metrics see it; actually slept only when sleep_on_backoff.
  double backoff_initial = 0.001;
  double backoff_multiplier = 2.0;
  double backoff_max = 1.0;
  /// Sleep the backoff for real (live systems). Off by default: simulated
  /// backends are deterministic, sleeping would only slow tests down.
  bool sleep_on_backoff = false;
  /// Wall-clock deadline per attempt, in seconds; 0 = none. A timed
  /// attempt runs on an attempt-pool thread under the shutdown token plus
  /// its deadline (the ambient CancellationToken), so a cooperative hang
  /// wakes at the deadline or at shutdown. The caller waits out the same
  /// deadline: an attempt still running then is abandoned (its worker is
  /// reaped on destruction — the inner evaluator must eventually return),
  /// classified Timeout and reported once as `eval.hang_detected`.
  double timeout_seconds = 0.0;
  /// Quarantine configurations whose failure is deterministic / timed out /
  /// still transient after max_attempts.
  bool quarantine_deterministic = true;
  bool quarantine_timeout = true;
  bool quarantine_exhausted = true;
};

/// Counters exposed by ResilientEvaluator::stats().
struct ResilienceStats {
  std::size_t calls = 0;         ///< evaluate() invocations
  std::size_t attempts = 0;      ///< backend attempts actually made
  std::size_t successes = 0;     ///< calls that returned ok
  std::size_t retries = 0;       ///< attempts beyond the first, per call
  std::size_t transient_failures = 0;
  std::size_t deterministic_failures = 0;
  std::size_t timeouts = 0;
  std::size_t quarantine_hits = 0;  ///< calls rejected by the quarantine
  std::size_t quarantined = 0;      ///< configurations ever quarantined
  double backoff_seconds = 0.0;     ///< total backoff charged
};

/// Decorator adding retry, deadline, and quarantine semantics to any
/// Evaluator. The inner evaluator must outlive this object; when a
/// deadline is configured, destruction additionally waits for any
/// abandoned (timed-out) attempts to finish.
///
/// Thread safety: the quarantine set and the statistics are guarded by an
/// internal mutex, so evaluate() may be called concurrently (e.g. from a
/// ParallelEvaluator stacked on top) as long as the inner evaluator is
/// itself thread-safe; capabilities() forwards the inner evaluator's
/// answer. Quarantine semantics stay exact under concurrency: two threads
/// racing the same deterministically failing configuration both fail, and
/// exactly one insertion is counted.
class ResilientEvaluator final : public Evaluator {
 public:
  explicit ResilientEvaluator(Evaluator& inner, RetryPolicy policy = {});
  ~ResilientEvaluator() override;

  const ParamSpace& space() const override { return inner_.space(); }
  EvalResult evaluate(const ParamConfig& config) override;
  EvalCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  Evaluator* inner_evaluator() noexcept override { return &inner_; }
  std::string problem_name() const override { return inner_.problem_name(); }
  std::string machine_name() const override { return inner_.machine_name(); }

  const RetryPolicy& policy() const noexcept { return policy_; }
  /// Point-in-time copy (the counters move concurrently under a
  /// ParallelEvaluator).
  ResilienceStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

  bool is_quarantined(const ParamConfig& config) const;
  std::size_t quarantine_size() const {
    std::lock_guard lock(mutex_);
    return quarantine_.size();
  }

  /// Quarantined configuration hashes, sorted (stable for checkpoints).
  std::vector<std::uint64_t> quarantined_hashes() const;
  /// Merge previously checkpointed quarantine hashes (reason unknown ->
  /// recorded as Deterministic).
  void restore_quarantine(const std::vector<std::uint64_t>& hashes);

 private:
  EvalResult attempt(const ParamConfig& config);
  void quarantine(std::uint64_t hash, FailureKind kind);

  Evaluator& inner_;
  RetryPolicy policy_;
  /// Guards stats_ and quarantine_ (sharded finer only if contention ever
  /// shows up in bench_micro's parallel-search benchmarks; evaluations
  /// dominate by orders of magnitude).
  mutable std::mutex mutex_;
  ResilienceStats stats_;
  std::unordered_map<std::uint64_t, FailureKind> quarantine_;
  /// Runs timed attempts (created when timeout_seconds > 0).
  std::unique_ptr<ThreadPool> attempt_pool_;
};

}  // namespace portatune::tuner
