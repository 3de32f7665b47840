// Centralized evaluator-stack wiring.
//
// Every driver (portatune_cli, quickstart, the bench_* binaries) used to
// hand-assemble the same decorator chain — backend, fault injection,
// observation, retry/timeout, parallel fan-out — with the same ordering
// constraints. EvaluatorStack captures that chain once, declaratively:
//
//     backend -> FaultInjecting -> Observed -> Resilient -> Parallel
//
// (each layer materialized only when requested; see parallel.hpp for why
// the parallel layer must be outermost). The stack is itself an
// Evaluator, so it drops into searches, run_transfer_experiment, and
// ExperimentJob factories directly, and find_layer<> locates any layer
// through the forwarding chain.
#pragma once

#include <memory>
#include <string>

#include "obs/observed_evaluator.hpp"
#include "sim/machine.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/faults.hpp"
#include "tuner/parallel.hpp"
#include "tuner/resilience.hpp"

namespace portatune::apps {

/// Declarative description of one evaluator decorator stack. Drivers
/// usually produce it with apps::TuningConfig::stack_options()
/// (apps/tuning_config.hpp), which keeps the stack consistent with the
/// search options produced from the same builder.
struct EvaluatorStackOptions {
  // Backend (see registry.hpp for the accepted names).
  std::string problem = "LU";
  std::string machine = "Westmere";
  sim::Compiler compiler = sim::Compiler::Gnu;
  int kernel_threads = 1;  ///< simulated OpenMP threads inside the kernel

  /// Fault-injection layer; materialized when any rate is non-zero.
  tuner::FaultProfile faults{};

  /// Observation layer (per-attempt metrics + events).
  bool observe = false;
  std::string observe_label = "eval";

  /// Resilience layer (retry / timeout / quarantine).
  bool resilient = false;
  tuner::RetryPolicy retry{};

  /// Parallel fan-out; materialized when eval_threads != 1
  /// (0 = hardware concurrency, exactly as ParallelOptions::threads).
  std::size_t eval_threads = 1;
  std::size_t batch_width = 0;  ///< 0 = ParallelEvaluator's default
  /// Cooperative cancellation, wired into the parallel layer (see
  /// ParallelOptions).
  CancellationToken cancel{};
};

/// Owns a fully wired decorator stack and forwards the Evaluator interface
/// to its outermost layer.
class EvaluatorStack final : public tuner::Evaluator {
 public:
  explicit EvaluatorStack(const EvaluatorStackOptions& opt);

  const tuner::ParamSpace& space() const override { return top_->space(); }
  tuner::EvalResult evaluate(const tuner::ParamConfig& config) override {
    return top_->evaluate(config);
  }
  std::vector<tuner::EvalResult> evaluate_batch(
      std::span<const tuner::ParamConfig> batch) override {
    return top_->evaluate_batch(batch);
  }
  tuner::EvalCapabilities capabilities() const override {
    return top_->capabilities();
  }
  tuner::Evaluator* inner_evaluator() noexcept override { return top_; }
  std::string problem_name() const override { return top_->problem_name(); }
  std::string machine_name() const override { return top_->machine_name(); }

  /// Layer accessors; null when the layer was not requested.
  tuner::FaultInjectingEvaluator* fault_layer() noexcept {
    return faults_.get();
  }
  obs::ObservedEvaluator* observed_layer() noexcept { return observed_.get(); }
  tuner::ResilientEvaluator* resilient_layer() noexcept {
    return resilient_.get();
  }
  tuner::ParallelEvaluator* parallel_layer() noexcept {
    return parallel_.get();
  }
  tuner::Evaluator& backend() noexcept { return *backend_; }

 private:
  tuner::EvaluatorPtr backend_;
  std::unique_ptr<tuner::FaultInjectingEvaluator> faults_;
  std::unique_ptr<obs::ObservedEvaluator> observed_;
  std::unique_ptr<tuner::ResilientEvaluator> resilient_;
  std::unique_ptr<tuner::ParallelEvaluator> parallel_;
  tuner::Evaluator* top_ = nullptr;  ///< outermost materialized layer
};

/// Convenience factory; the result is an EvaluatorPtr-compatible owner of
/// the whole stack (handy inside tuner::ExperimentJob factories).
std::unique_ptr<EvaluatorStack> make_evaluator_stack(
    const EvaluatorStackOptions& opt);

}  // namespace portatune::apps
