#include "apps/tuning_config.hpp"

#include "support/error.hpp"

namespace portatune::apps {

TuningConfig& TuningConfig::problem(std::string name) {
  problem_ = std::move(name);
  return *this;
}
TuningConfig& TuningConfig::machine(std::string name) {
  machine_ = std::move(name);
  return *this;
}
TuningConfig& TuningConfig::source_machine(std::string name) {
  source_machine_ = std::move(name);
  return *this;
}
TuningConfig& TuningConfig::machines(std::string source, std::string target) {
  source_machine_ = std::move(source);
  machine_ = std::move(target);
  return *this;
}
TuningConfig& TuningConfig::compiler(sim::Compiler c) {
  compiler_ = c;
  return *this;
}
TuningConfig& TuningConfig::kernel_threads(int n) {
  kernel_threads_ = n;
  return *this;
}
TuningConfig& TuningConfig::max_evals(std::size_t n) {
  max_evals_ = n;
  return *this;
}
TuningConfig& TuningConfig::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}
TuningConfig& TuningConfig::pool_size(std::size_t n) {
  pool_size_ = n;
  return *this;
}
TuningConfig& TuningConfig::delta_percent(double d) {
  delta_percent_ = d;
  return *this;
}
TuningConfig& TuningConfig::forest(ml::ForestParams fp) {
  forest_ = fp;
  return *this;
}
TuningConfig& TuningConfig::failure_budget(tuner::FailureBudget fb) {
  failure_budget_ = fb;
  return *this;
}
TuningConfig& TuningConfig::guard(tuner::GuardOptions g) {
  guard_ = std::move(g);
  return *this;
}
TuningConfig& TuningConfig::cancel(CancellationToken token) {
  cancel_ = std::move(token);
  return *this;
}
TuningConfig& TuningConfig::faults(tuner::FaultProfile profile) {
  faults_ = profile;
  return *this;
}
TuningConfig& TuningConfig::observe(bool on) {
  observe_ = on;
  return *this;
}
TuningConfig& TuningConfig::observe_label(std::string label) {
  observe_label_ = std::move(label);
  return *this;
}
TuningConfig& TuningConfig::resilient(bool on) {
  resilient_ = on;
  return *this;
}
TuningConfig& TuningConfig::retry(tuner::RetryPolicy policy) {
  retry_ = policy;
  return *this;
}
TuningConfig& TuningConfig::eval_threads(std::size_t n) {
  eval_threads_ = n;
  return *this;
}
TuningConfig& TuningConfig::batch_width(std::size_t n) {
  batch_width_ = n;
  return *this;
}
TuningConfig& TuningConfig::eval_deadline_seconds(double s) {
  eval_deadline_ = s;
  return *this;
}

const TuningConfig& TuningConfig::validate() const {
  PT_REQUIRE(!problem_.empty(), "TuningConfig: problem must be named");
  PT_REQUIRE(!machine_.empty(), "TuningConfig: machine must be named");
  PT_REQUIRE(max_evals_ > 0, "TuningConfig: max_evals must be positive");
  PT_REQUIRE(pool_size_ > 0 && pool_size_ <= kMaxPoolSize,
             "TuningConfig: pool_size must lie in 1.." +
                 std::to_string(kMaxPoolSize));
  PT_REQUIRE(delta_percent_ > 0.0 && delta_percent_ < 100.0,
             "TuningConfig: delta_percent must lie strictly between 0 "
             "and 100");
  PT_REQUIRE(kernel_threads_ >= 1,
             "TuningConfig: kernel_threads must be >= 1");
  PT_REQUIRE(retry_.max_attempts >= 1,
             "TuningConfig: retry.max_attempts must be >= 1");
  PT_REQUIRE(eval_deadline_ >= 0.0,
             "TuningConfig: eval_deadline_seconds must be >= 0");
  PT_REQUIRE(failure_budget_.max_consecutive > 0 &&
                 failure_budget_.max_total > 0,
             "TuningConfig: failure budget bounds must be positive");
  if (guard_.enabled) {
    PT_REQUIRE(guard_.floor >= guard_.disable_floor,
               "TuningConfig: guard floor must be >= disable_floor");
    PT_REQUIRE(guard_.window >= guard_.min_observations,
               "TuningConfig: guard window must hold min_observations");
    PT_REQUIRE(guard_.sync_window > 0,
               "TuningConfig: guard sync_window must be positive");
  }
  return *this;
}

tuner::SearchOptions TuningConfig::search_options() const {
  validate();
  tuner::SearchOptions o;
  o.max_evals = max_evals_;
  o.seed = seed_;
  o.pool_size = pool_size_;
  o.delta_percent = delta_percent_;
  o.forest = forest_;
  o.failure_budget = failure_budget_;
  o.guard = guard_;
  o.cancel = cancel_;
  return o;
}

tuner::ExperimentSettings TuningConfig::experiment_settings() const {
  return {search_options()};
}

EvaluatorStackOptions TuningConfig::stack_options(StackRole role) const {
  validate();
  EvaluatorStackOptions so;
  so.problem = problem_;
  so.machine = role == StackRole::Source ? source_machine_ : machine_;
  so.compiler = compiler_;
  so.kernel_threads = kernel_threads_;
  so.faults = faults_;
  so.observe = observe_;
  if (!observe_label_.empty()) {
    so.observe_label = observe_label_;
  } else {
    switch (role) {
      case StackRole::Single: so.observe_label = "eval"; break;
      case StackRole::Source: so.observe_label = "eval.source"; break;
      case StackRole::Target: so.observe_label = "eval.target"; break;
    }
  }
  so.resilient = resilient_;
  so.retry = retry_;
  so.eval_threads = eval_threads_;
  so.batch_width = batch_width_;
  so.cancel = cancel_;
  so.eval_deadline_seconds = eval_deadline_;
  return so;
}

std::unique_ptr<EvaluatorStack> TuningConfig::make_stack(
    StackRole role) const {
  return make_evaluator_stack(stack_options(role));
}

}  // namespace portatune::apps
