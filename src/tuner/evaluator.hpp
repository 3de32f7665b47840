// Evaluation backend interface.
//
// An Evaluator is "an application on a machine": it owns the parameter
// space D and maps a configuration to a measured run time, f(x; alpha,
// beta, gamma) in the paper's notation. Search algorithms are written
// against this interface only, so the same search runs unchanged on the
// simulated Table II machines, on the host via the native kernel backend,
// or on the mini-apps.
//
// Evaluation is batch-oriented: searches hand the evaluator a *window* of
// configurations via evaluate_batch() and size those windows by
// capabilities().preferred_batch. The default implementation evaluates the
// batch serially through evaluate(), so every existing backend works
// unmodified; ParallelEvaluator (tuner/parallel.hpp) overrides it to fan a
// batch out over a thread pool when the inner backend is thread-safe.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tuner/param.hpp"

namespace portatune::tuner {

/// Why an evaluation failed. Drives the retry policy: transient failures
/// (noise, racing processes, flaky I/O) are worth retrying; deterministic
/// failures (infeasible configuration, compile error, segfault on a bad
/// tile/unroll combination) fail every attempt and are quarantined;
/// timeouts (hung kernel) are treated as deterministic by default.
enum class FailureKind {
  None = 0,       ///< the evaluation succeeded
  Transient,      ///< may succeed on retry
  Deterministic,  ///< will fail on every attempt with this configuration
  Timeout,        ///< exceeded the wall-clock deadline
};

inline const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::None: return "none";
    case FailureKind::Transient: return "transient";
    case FailureKind::Deterministic: return "deterministic";
    case FailureKind::Timeout: return "timeout";
  }
  return "unknown";
}

/// Outcome of evaluating one configuration. Construct through the
/// factories (success / failure / transient_failure) rather than aggregate
/// initialization so the invariants (ok <-> failure_kind) hold by
/// construction.
struct EvalResult {
  double seconds = 0.0;  ///< measured run time (the objective)
  bool ok = true;        ///< false: build/run failure, config is discarded
  std::string error;     ///< diagnostic when !ok
  /// Failure classification (None when ok).
  FailureKind failure_kind = FailureKind::None;
  /// Attempts consumed producing this result (> 1 after retries; 0 when a
  /// quarantined configuration was rejected without touching the backend).
  std::size_t attempts = 1;
  /// Search time spent on this call beyond the reported measurement:
  /// failed attempts, retry backoff, and waits that hit an attempt deadline.
  double overhead_seconds = 0.0;

  /// A successful measurement of `seconds`.
  static EvalResult success(double seconds) {
    EvalResult r;
    r.seconds = seconds;
    return r;
  }

  /// A failure an evaluator knows to be permanent for this configuration
  /// (the historical default: infeasible config, build error).
  static EvalResult failure(std::string why,
                            FailureKind kind = FailureKind::Deterministic) {
    EvalResult r;
    r.ok = false;
    r.error = std::move(why);
    r.failure_kind = kind;
    return r;
  }

  static EvalResult transient_failure(std::string why) {
    return failure(std::move(why), FailureKind::Transient);
  }
};

/// What a caller may assume about an evaluator. Decorators forward their
/// inner evaluator's capabilities (adjusted for whatever guarantees the
/// decorator adds or removes).
struct EvalCapabilities {
  /// evaluate() may be called concurrently from multiple threads. Backends
  /// default to false; pure-function backends (the simulated machines)
  /// override this, while the native timing backend stays serial (shared
  /// scratch buffers, and concurrent timing runs would skew each other).
  bool thread_safe = false;
  /// Preferred number of configurations per evaluate_batch() call.
  /// Searches size their draw windows by this; 1 means "serial" and
  /// reproduces the classic one-at-a-time evaluation loop exactly.
  std::size_t preferred_batch = 1;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// The feasible configuration space D. The paper's transfer assumption
  /// is that D is identical across machines for a given application.
  virtual const ParamSpace& space() const = 0;

  /// Measure one configuration. Implementations must tolerate repeated
  /// calls with the same configuration (and should be deterministic for
  /// reproducibility; the simulated backends are).
  virtual EvalResult evaluate(const ParamConfig& config) = 0;

  /// Measure a batch of configurations; result i corresponds to batch[i]
  /// regardless of the order evaluations actually complete in. The default
  /// evaluates serially in batch order, so a batch against a plain backend
  /// is indistinguishable from a loop of evaluate() calls.
  virtual std::vector<EvalResult> evaluate_batch(
      std::span<const ParamConfig> batch) {
    std::vector<EvalResult> out;
    out.reserve(batch.size());
    for (const auto& config : batch) out.push_back(evaluate(config));
    return out;
  }

  /// Concurrency/batching contract of this evaluator. The conservative
  /// default (serial, batch width 1) is correct for every backend.
  virtual EvalCapabilities capabilities() const { return {}; }

  /// Decorators override this to expose the evaluator they wrap; plain
  /// backends return nullptr. Lets callers locate a specific layer
  /// anywhere in a decorator stack (see find_layer below) instead of
  /// assuming the stack's exact shape.
  virtual Evaluator* inner_evaluator() noexcept { return nullptr; }

  virtual std::string problem_name() const = 0;
  virtual std::string machine_name() const = 0;
};

using EvaluatorPtr = std::unique_ptr<Evaluator>;

/// Walk a decorator stack outermost-in and return the first layer of type
/// T, or nullptr when no layer matches. E.g. the checkpoint code uses
/// find_layer<ResilientEvaluator> to snapshot the quarantine no matter how
/// many observers or parallel fan-outs wrap it.
template <typename T>
T* find_layer(Evaluator* eval) noexcept {
  for (Evaluator* e = eval; e != nullptr; e = e->inner_evaluator())
    if (auto* hit = dynamic_cast<T*>(e)) return hit;
  return nullptr;
}

}  // namespace portatune::tuner
