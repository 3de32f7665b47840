// Parallel batch evaluation: the concurrency layer between search
// algorithms and evaluation backends.
//
// ParallelEvaluator is a decorator that fans an evaluate_batch() window
// out over a support::ThreadPool. Results keep *batch order* (result i is
// batch[i]) regardless of completion order, so a search that processes a
// window in draw order produces a trace bit-identical to the serial path
// under the common-random-numbers protocol.
//
// Composition: ParallelEvaluator goes OUTERMOST —
//
//     backend -> FaultInjectingEvaluator -> ObservedEvaluator
//             -> ResilientEvaluator -> ParallelEvaluator -> search
//
// because the fan-out calls inner->evaluate() concurrently; every layer
// underneath must therefore be thread-safe. All decorator layers are
// (atomic counters, mutex-guarded quarantine/fault state, lock-protected
// sinks); backends advertise their own safety via capabilities(). When the
// inner evaluator reports thread_safe == false the fan-out silently
// degrades to the serial fallback, so composing with a serial backend is
// always correct, just not faster.
//
// Determinism: the simulated backends derive noise from a pure hash of
// (machine, kernel, configuration) and the fault injector keys its
// channels on (seed, configuration, per-config attempt index) — never on
// global call order — so evaluating a window concurrently returns the
// exact results the serial loop would, independent of thread scheduling.
#pragma once

#include <cstddef>
#include <memory>

#include "support/cancellation.hpp"
#include "tuner/evaluator.hpp"

namespace portatune {
class ThreadPool;
}

namespace portatune::tuner {

struct ParallelOptions {
  /// Worker threads; 0 means hardware_concurrency, 1 disables the pool
  /// (pure pass-through, useful for serial-vs-parallel parity baselines).
  std::size_t threads = 0;
  /// Window width advertised to searches via capabilities();
  /// 0 means 2x the worker count (keeps the pool busy across the tail of
  /// a window whose evaluations have uneven cost).
  std::size_t batch_width = 0;
  /// Cooperative cancellation (graceful shutdown): once cancelled,
  /// evaluate_batch stops starting evaluations and returns the clean
  /// *prefix* of results whose evaluations all ran — the search accounts
  /// them in draw order and stops at a consistent, checkpointable point.
  /// Invalid (default) = never cancelled.
  CancellationToken cancel{};
  /// Per-evaluation deadline registered with the EvalWatchdog (0 = off).
  /// Each evaluation runs under a watched per-eval cancellation domain,
  /// so a cooperatively hung evaluation is woken (and reported as
  /// eval.hang_detected) at the deadline instead of stalling its batch
  /// window for the hang's full duration. Layers below may enforce their
  /// own (typically shorter) deadlines; the innermost one wins.
  double eval_deadline_seconds = 0.0;
};

/// Decorator fanning evaluate_batch() out over a thread pool with
/// deterministic (batch-order) results. The inner evaluator must outlive
/// this object.
class ParallelEvaluator final : public Evaluator {
 public:
  explicit ParallelEvaluator(Evaluator& inner, ParallelOptions opt = {});
  ~ParallelEvaluator() override;

  const ParamSpace& space() const override { return inner_.space(); }
  EvalResult evaluate(const ParamConfig& config) override {
    return inner_.evaluate(config);
  }
  std::vector<EvalResult> evaluate_batch(
      std::span<const ParamConfig> batch) override;
  EvalCapabilities capabilities() const override;
  Evaluator* inner_evaluator() noexcept override { return &inner_; }
  std::string problem_name() const override { return inner_.problem_name(); }
  std::string machine_name() const override { return inner_.machine_name(); }

  /// Worker threads actually running (1 when the fan-out is disabled
  /// because the inner evaluator is not thread-safe or threads == 1).
  std::size_t threads() const noexcept;

 private:
  Evaluator& inner_;
  ParallelOptions opt_;
  /// Present only when fanning out is both requested and safe. Its own
  /// pool, not the global one: the width is evaluation concurrency, which
  /// latency-bound evaluations need beyond the core count.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace portatune::tuner
