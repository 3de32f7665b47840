// Shared synthetic evaluators for tuner tests: cheap, deterministic
// landscapes whose optima are known in closed form.
#pragma once

#include <atomic>
#include <cmath>
#include <functional>
#include <sstream>

#include "tuner/evaluator.hpp"
#include "tuner/persistence.hpp"

namespace portatune::tuner::testing {

inline ParamSpace grid_space(std::size_t params = 4, int values = 10) {
  ParamSpace s;
  for (std::size_t p = 0; p < params; ++p)
    s.add("p" + std::to_string(p), range_values(0, values - 1));
  return s;
}

/// runtime = base + sum_i w_i (v_i - opt_i)^2. Optionally fails configs
/// matching a predicate (to exercise failure handling).
class QuadraticEvaluator final : public Evaluator {
 public:
  QuadraticEvaluator(std::string machine, std::vector<double> optimum,
                     std::vector<double> weights, double base = 1.0)
      : space_(grid_space(optimum.size())),
        machine_(std::move(machine)),
        optimum_(std::move(optimum)),
        weights_(std::move(weights)),
        base_(base) {}

  // The atomic call counter deletes the implicit move constructor; tests
  // store these in containers, so move explicitly (counter carried over).
  QuadraticEvaluator(QuadraticEvaluator&& other) noexcept
      : fail_when(std::move(other.fail_when)),
        space_(std::move(other.space_)),
        machine_(std::move(other.machine_)),
        optimum_(std::move(other.optimum_)),
        weights_(std::move(other.weights_)),
        base_(other.base_),
        calls_(other.calls_.load(std::memory_order_relaxed)) {}

  const ParamSpace& space() const override { return space_; }

  EvalResult evaluate(const ParamConfig& config) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (fail_when && fail_when(config))
      return EvalResult::failure("synthetic failure");
    const auto v = space_.features(config);
    double y = base_;
    for (std::size_t i = 0; i < v.size(); ++i)
      y += weights_[i] * (v[i] - optimum_[i]) * (v[i] - optimum_[i]);
    return EvalResult::success(y);
  }

  /// Thread-safe: pure landscape, atomic call counter. (Tests that set
  /// fail_when must install it before sharing the evaluator across
  /// threads.)
  EvalCapabilities capabilities() const override {
    return {.thread_safe = true, .preferred_batch = 1};
  }

  std::string problem_name() const override { return "quadratic"; }
  std::string machine_name() const override { return machine_; }

  double optimum_value() const { return base_; }
  std::size_t calls() const { return calls_.load(std::memory_order_relaxed); }

  std::function<bool(const ParamConfig&)> fail_when;

 private:
  ParamSpace space_;
  std::string machine_;
  std::vector<double> optimum_;
  std::vector<double> weights_;
  double base_;
  std::atomic<std::size_t> calls_{0};
};

/// Serialize a trace as a checkpoint with the volatile wall-clock column
/// zeroed, so two runs of the same search compare byte-for-byte.
inline std::string canonical_csv(const SearchTrace& t,
                                 const ParamSpace& space) {
  SearchCheckpoint z;
  z.trace = SearchTrace(t.algorithm(), t.problem(), t.machine());
  for (const auto& e : t.entries())
    z.trace.restore_entry(e.config, e.seconds, e.elapsed, e.draw_index, 0.0);
  z.draws = t.size();
  std::ostringstream os;
  save_checkpoint_csv(os, z, space);
  return os.str();
}

}  // namespace portatune::tuner::testing
