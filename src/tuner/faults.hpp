// Deterministic fault injection for testing search resilience.
//
// FaultInjectingEvaluator wraps any Evaluator and injects the failure
// modes real autotuning backends exhibit — transient failures (system
// noise, racing processes), deterministic per-configuration failures
// (variants that never compile or always segfault), simulated hangs
// (kernels that never return), and noise-spike outliers (measurements
// polluted by interference).
//
// Every injection decision is a pure hash of (seed, configuration, and the
// per-configuration attempt index) — never of global call order — so a
// fault schedule is reproducible bit-for-bit across runs, a retried
// configuration deterministically recovers (or not), and a checkpointed
// search resumes against the identical fault sequence.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "tuner/evaluator.hpp"

namespace portatune::tuner {

/// Injection rates (each in [0, 1]) and shaping knobs.
struct FaultProfile {
  double transient_rate = 0.0;      ///< per-attempt chance of transient failure
  double deterministic_rate = 0.0;  ///< per-config chance of permanent failure
  /// Per-attempt chance of a *hang*: the attempt stalls, parked on the
  /// ambient CancellationToken (a timed ResilientEvaluator attempt's
  /// deadline token) or, with none installed, on shutdown_token(), until
  /// the token wakes it or hang_stall_seconds elapse. Either way it then
  /// returns a Timeout-classified failure without ever reaching the inner
  /// evaluator, so traces do not depend on which wake ended the stall.
  double hang_rate = 0.0;
  double hang_stall_seconds = 30.0;  ///< max real wall-clock stall per hang
  /// Per-attempt chance of a latency injection: sleep delay_seconds of
  /// real time, then evaluate normally. Slow motion for chaos testing
  /// (--slow) and the latency-bound micro-benchmarks; never changes the
  /// result.
  double delay_rate = 0.0;
  double delay_seconds = 0.05;
  double spike_rate = 0.0;          ///< per-attempt chance of a noise outlier
  double spike_factor = 10.0;       ///< outlier multiplier on the run time
  std::uint64_t seed = 1;           ///< fault-schedule seed
};

struct FaultStats {
  std::size_t calls = 0;
  std::size_t transient_injected = 0;
  std::size_t deterministic_injected = 0;
  std::size_t hangs_injected = 0;
  std::size_t delays_injected = 0;
  std::size_t spikes_injected = 0;
};

/// Parse a CLI fault spec onto `base`. A bare number ("0.1") is the
/// historic spelling for the transient rate; otherwise a comma list of
/// key:value pairs — transient, deterministic (det), hang, hang-stall,
/// delay, delay-seconds, spike, spike-factor, seed. Example:
/// "transient:0.1,hang:0.05,hang-stall:2". Throws portatune::Error on
/// unknown keys or unparsable values; rates are validated by the
/// FaultInjectingEvaluator constructor.
FaultProfile parse_fault_spec(const std::string& spec,
                              FaultProfile base = {});

class FaultInjectingEvaluator final : public Evaluator {
 public:
  /// The inner evaluator must outlive this decorator.
  FaultInjectingEvaluator(Evaluator& inner, FaultProfile profile);

  const ParamSpace& space() const override { return inner_.space(); }
  EvalResult evaluate(const ParamConfig& config) override;
  /// Thread-safe when the inner evaluator is: the per-config attempt
  /// counters are mutex-guarded, and fault draws stay deterministic under
  /// concurrency because they key on the per-*configuration* attempt
  /// index, never on global call order.
  EvalCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  Evaluator* inner_evaluator() noexcept override { return &inner_; }
  std::string problem_name() const override { return inner_.problem_name(); }
  std::string machine_name() const override { return inner_.machine_name(); }

  const FaultProfile& profile() const noexcept { return profile_; }
  /// Point-in-time copy (the counters move concurrently under a
  /// ParallelEvaluator).
  FaultStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

  /// True when the profile condemns this configuration permanently
  /// (independent of call history — a pure function of seed and config).
  bool is_deterministically_failing(const ParamConfig& config) const;

 private:
  Evaluator& inner_;
  FaultProfile profile_;
  /// Guards stats_ and attempt_counts_.
  mutable std::mutex mutex_;
  FaultStats stats_;
  /// evaluate() calls seen per configuration hash; the attempt index keys
  /// the per-attempt fault channels so retries see fresh (but still
  /// deterministic) draws.
  std::unordered_map<std::uint64_t, std::uint64_t> attempt_counts_;
};

}  // namespace portatune::tuner
