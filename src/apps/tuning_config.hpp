// TuningConfig: one validated builder for a whole tuning run.
//
// A run needs a search configuration (tuner::SearchOptions, or
// tuner::ExperimentSettings for a transfer experiment) and one or two
// evaluator stacks (EvaluatorStackOptions), and they share invariants:
// the CRN seed, the cancel token that must reach both the stack and the
// search, the guard's forest matching the experiment's. Drivers describe
// the run here once, fluently, and produce both halves from it.
//
//     auto cfg = apps::TuningConfig{}
//                    .problem("LU").machines("Westmere", "Sandybridge")
//                    .max_evals(200).seed(7).eval_threads(4);
//     auto source = cfg.make_stack(apps::StackRole::Source);
//     auto target = cfg.make_stack(apps::StackRole::Target);
//     auto result = tuner::run_transfer_experiment(*source, *target,
//                                                  cfg.experiment_settings());
//
// Every producer validates first, so an impossible configuration fails
// loudly at build time instead of deep inside a search.
#pragma once

#include <memory>
#include <string>

#include "apps/evaluator_factory.hpp"
#include "tuner/experiment.hpp"
#include "tuner/search_options.hpp"

namespace portatune::apps {

/// Which evaluator stack of a run a producer builds. Single is a
/// one-machine run (collect / a plain session); Source/Target are the
/// two sides of a transfer and get role-tagged observation labels.
enum class StackRole { Single, Source, Target };

class TuningConfig {
 public:
  /// validate()'s bound on pool_size: ten times the paper's N. Every pool
  /// configuration is held, encoded and predicted at once, so an
  /// unbounded size would let one request stall the process.
  static constexpr std::size_t kMaxPoolSize = 100000;
  /// validate()'s bound on max_evals, for the same reason: a session
  /// holds its whole trace, and one `suggest` may draw up to max_evals
  /// configurations at once.
  static constexpr std::size_t kMaxEvals = 100000;
  /// validate()'s bound on eval_threads: each one is a thread of the
  /// parallel layer's pool, all started when the stack is built, and a
  /// thread that fails to start there terminates the process. 256 still
  /// allows a stack as wide as the host (the benchmark's delayed cell
  /// uses one thread per core) on machines with up to 256 hardware
  /// threads.
  static constexpr std::size_t kMaxEvalThreads = 256;
  /// validate()'s bound on the retry policy's time fields (timeout,
  /// backoff initial and max), in seconds: one day. A deadline becomes a
  /// steady_clock time point, whose conversion overflows (undefined
  /// behaviour) for values like 1e300; a day bounds any real attempt.
  static constexpr double kMaxRetrySeconds = 86400.0;

  // -- Backend ----------------------------------------------------------
  TuningConfig& problem(std::string name);
  /// The machine of Single/Target stacks.
  TuningConfig& machine(std::string name);
  /// The machine of Source stacks (transfers).
  TuningConfig& source_machine(std::string name);
  /// Both transfer sides at once.
  TuningConfig& machines(std::string source, std::string target);
  TuningConfig& compiler(sim::Compiler c);
  TuningConfig& kernel_threads(int n);

  // -- Search -----------------------------------------------------------
  TuningConfig& max_evals(std::size_t n);
  TuningConfig& seed(std::uint64_t s);
  TuningConfig& pool_size(std::size_t n);
  TuningConfig& delta_percent(double d);
  TuningConfig& forest(ml::ForestParams fp);
  TuningConfig& failure_budget(tuner::FailureBudget fb);
  TuningConfig& guard(tuner::GuardOptions g);
  TuningConfig& cancel(CancellationToken token);

  // -- Evaluator stack layers ------------------------------------------
  TuningConfig& faults(tuner::FaultProfile profile);
  TuningConfig& observe(bool on);
  TuningConfig& observe_label(std::string label);
  TuningConfig& resilient(bool on);
  TuningConfig& retry(tuner::RetryPolicy policy);
  TuningConfig& eval_threads(std::size_t n);
  TuningConfig& batch_width(std::size_t n);

  // -- Introspection (CLI summaries, service status) --------------------
  const std::string& problem() const noexcept { return problem_; }
  const std::string& machine() const noexcept { return machine_; }
  const std::string& source_machine() const noexcept {
    return source_machine_;
  }
  std::size_t max_evals() const noexcept { return max_evals_; }
  std::uint64_t seed() const noexcept { return seed_; }
  std::size_t eval_threads() const noexcept { return eval_threads_; }
  std::size_t pool_size() const noexcept { return pool_size_; }
  int kernel_threads() const noexcept { return kernel_threads_; }
  sim::Compiler compiler() const noexcept { return compiler_; }
  double delta_percent() const noexcept { return delta_percent_; }
  const ml::ForestParams& forest() const noexcept { return forest_; }
  const tuner::FailureBudget& failure_budget() const noexcept {
    return failure_budget_;
  }
  const tuner::GuardOptions& guard() const noexcept { return guard_; }
  const tuner::FaultProfile& faults() const noexcept { return faults_; }
  bool observe() const noexcept { return observe_; }
  const std::string& observe_label() const noexcept { return observe_label_; }
  bool resilient() const noexcept { return resilient_; }
  const tuner::RetryPolicy& retry() const noexcept { return retry_; }
  std::size_t batch_width() const noexcept { return batch_width_; }

  /// Check the cross-field invariants; throws portatune::Error with the
  /// offending field named. Every producer below calls this first.
  const TuningConfig& validate() const;

  // -- Producers ---------------------------------------------------------
  /// Options for any search, or a TuningSession.
  tuner::SearchOptions search_options() const;
  /// search_options() with empty experiment hooks.
  tuner::ExperimentSettings experiment_settings() const;
  EvaluatorStackOptions stack_options(StackRole role = StackRole::Single)
      const;
  std::unique_ptr<EvaluatorStack> make_stack(
      StackRole role = StackRole::Single) const;

 private:
  std::string problem_ = "LU";
  std::string machine_ = "Westmere";
  std::string source_machine_ = "Westmere";
  sim::Compiler compiler_ = sim::Compiler::Gnu;
  int kernel_threads_ = 1;

  std::size_t max_evals_ = 100;
  std::uint64_t seed_ = 20160401;  ///< the shared CRN seed (Sec. IV-D)
  std::size_t pool_size_ = 10000;
  double delta_percent_ = 20.0;
  ml::ForestParams forest_{};
  tuner::FailureBudget failure_budget_{};
  tuner::GuardOptions guard_{};
  CancellationToken cancel_{};

  tuner::FaultProfile faults_{};
  bool observe_ = false;
  std::string observe_label_;  ///< empty = role-derived default
  bool resilient_ = false;
  tuner::RetryPolicy retry_{};
  std::size_t eval_threads_ = 1;
  std::size_t batch_width_ = 0;
};

}  // namespace portatune::apps
