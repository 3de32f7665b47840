// TuningConfig: the single composition point for a run. Validation must
// reject impossible configurations loudly, and every producer must
// assemble its options exactly as the hand-wired drivers used to.
#include "apps/tuning_config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "support/error.hpp"
#include "tuner/random_search.hpp"

namespace portatune::apps {
namespace {

TEST(TuningConfigTest, DefaultsValidateAndMatchThePaperProtocol) {
  const TuningConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  const tuner::ExperimentSettings s = cfg.experiment_settings();
  // Sec. IV-D: n_max=100, N=10000, delta=20%, shared CRN seed.
  EXPECT_EQ(s.max_evals, 100u);
  EXPECT_EQ(s.pool_size, 10000u);
  EXPECT_DOUBLE_EQ(s.delta_percent, 20.0);
  EXPECT_EQ(s.seed, 20160401u);
}

TEST(TuningConfigTest, ValidationNamesTheOffendingField) {
  const auto expect_rejects = [](const TuningConfig& cfg,
                                 const std::string& needle) {
    try {
      cfg.validate();
      FAIL() << "expected validation to reject (" << needle << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_rejects(TuningConfig{}.problem(""), "problem");
  expect_rejects(TuningConfig{}.machine(""), "machine");
  expect_rejects(TuningConfig{}.max_evals(0), "max_evals");
  expect_rejects(TuningConfig{}.max_evals(TuningConfig::kMaxEvals + 1),
                 "max_evals");
  EXPECT_NO_THROW(TuningConfig{}.max_evals(TuningConfig::kMaxEvals).validate());
  expect_rejects(
      TuningConfig{}.eval_threads(TuningConfig::kMaxEvalThreads + 1),
      "eval_threads");
  EXPECT_NO_THROW(
      TuningConfig{}.eval_threads(TuningConfig::kMaxEvalThreads).validate());
  expect_rejects(TuningConfig{}.pool_size(0), "pool_size");
  expect_rejects(TuningConfig{}.pool_size(TuningConfig::kMaxPoolSize + 1),
                 "pool_size");
  EXPECT_NO_THROW(
      TuningConfig{}.pool_size(TuningConfig::kMaxPoolSize).validate());
  expect_rejects(TuningConfig{}.delta_percent(0.0), "delta_percent");
  expect_rejects(TuningConfig{}.delta_percent(100.0), "delta_percent");
  expect_rejects(TuningConfig{}.kernel_threads(0), "kernel_threads");
  expect_rejects(TuningConfig{}.failure_budget({0, 0}), "failure budget");
  // The retry policy's time fields: finite, >= 0 and at most a day.
  const auto retry_with = [](double tuner::RetryPolicy::*field, double v) {
    tuner::RetryPolicy policy;
    policy.*field = v;
    return TuningConfig{}.retry(policy);
  };
  for (const auto& [field, name] :
       {std::pair{&tuner::RetryPolicy::timeout_seconds, "timeout_seconds"},
        std::pair{&tuner::RetryPolicy::backoff_initial, "backoff_initial"},
        std::pair{&tuner::RetryPolicy::backoff_max, "backoff_max"}}) {
    for (const double bad : {-1.0, 1e300, TuningConfig::kMaxRetrySeconds * 2,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()})
      expect_rejects(retry_with(field, bad), name);
    EXPECT_NO_THROW(
        retry_with(field, TuningConfig::kMaxRetrySeconds).validate());
  }

  // Guard invariants only bind when the guard is on.
  tuner::GuardOptions inverted;
  inverted.enabled = true;
  inverted.floor = -0.5;  // below the default disable_floor of -0.2
  expect_rejects(TuningConfig{}.guard(inverted), "floor");
  inverted.enabled = false;
  EXPECT_NO_THROW(TuningConfig{}.guard(inverted).validate());
}

TEST(TuningConfigTest, ProducersAssembleTheLegacyStructsConsistently) {
  tuner::FailureBudget budget;
  budget.max_consecutive = 5;
  budget.max_total = 17;
  const TuningConfig cfg = TuningConfig{}
                               .problem("ATAX")
                               .machines("Power7", "Sandybridge")
                               .max_evals(64)
                               .seed(99)
                               .pool_size(512)
                               .delta_percent(15.0)
                               .failure_budget(budget)
                               .eval_threads(4);

  const tuner::SearchOptions o = cfg.search_options();
  EXPECT_EQ(o.max_evals, 64u);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.pool_size, 512u);
  EXPECT_DOUBLE_EQ(o.delta_percent, 15.0);
  EXPECT_EQ(o.failure_budget.max_consecutive, 5u);
  EXPECT_EQ(o.failure_budget.max_total, 17u);
  EXPECT_EQ(o.resume, nullptr);

  const tuner::ExperimentSettings s = cfg.experiment_settings();
  EXPECT_EQ(s.max_evals, 64u);
  EXPECT_EQ(s.pool_size, 512u);
  EXPECT_DOUBLE_EQ(s.delta_percent, 15.0);
  EXPECT_EQ(s.seed, 99u);

  EXPECT_EQ(cfg.stack_options().eval_threads, 4u);
}

TEST(TuningConfigTest, StackRolesPickTheRightMachineAndLabel) {
  const TuningConfig cfg = TuningConfig{}
                               .problem("LU")
                               .machines("Westmere", "Sandybridge")
                               .observe(true);

  const EvaluatorStackOptions single = cfg.stack_options();
  EXPECT_EQ(single.machine, "Sandybridge");
  EXPECT_EQ(single.observe_label, "eval");

  const EvaluatorStackOptions source =
      cfg.stack_options(StackRole::Source);
  EXPECT_EQ(source.machine, "Westmere");
  EXPECT_EQ(source.observe_label, "eval.source");

  const EvaluatorStackOptions target =
      cfg.stack_options(StackRole::Target);
  EXPECT_EQ(target.machine, "Sandybridge");
  EXPECT_EQ(target.observe_label, "eval.target");

  // An explicit label wins over the role-derived default.
  const EvaluatorStackOptions labelled =
      TuningConfig(cfg).observe_label("bench").stack_options(
          StackRole::Source);
  EXPECT_EQ(labelled.observe_label, "bench");
}

TEST(TuningConfigTest, MakeStackMatchesHandAssembledOptions) {
  const TuningConfig cfg = TuningConfig{}
                               .problem("LU")
                               .machine("Power7")
                               .max_evals(25)
                               .seed(3);
  auto built = cfg.make_stack();
  EXPECT_EQ(built->problem_name(), "LU");
  EXPECT_EQ(built->machine_name(), "Power7");

  EvaluatorStackOptions hand;
  hand.problem = "LU";
  hand.machine = "Power7";
  auto legacy = make_evaluator_stack(hand);

  const tuner::SearchOptions opt = cfg.search_options();
  const tuner::SearchTrace a = tuner::random_search(*built, opt);
  const tuner::SearchTrace b = tuner::random_search(*legacy, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).config, b.entry(i).config);
    EXPECT_DOUBLE_EQ(a.entry(i).seconds, b.entry(i).seconds);
  }
}

}  // namespace
}  // namespace portatune::apps
