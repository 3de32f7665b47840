// Guarded-transfer tests: TrustMonitor state machine units, and the
// RS_p / RS_b behavioral guarantees — a misleading surrogate cannot make
// the guarded searches much worse than plain RS, an accurate surrogate
// leaves their traces bit-identical to the unguarded runs, and the
// guard's adaptive decisions survive parallel evaluation unchanged.
#include "tuner/guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ml/model.hpp"
#include "obs/sink.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/parallel.hpp"
#include "tuner/random_search.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;
using testing::canonical_csv;
using testing::grid_space;

// ---------------------------------------------------------------------
// Synthetic surrogates with closed-form predictions: what the model
// believes is set by construction, independent of any training data.
// ---------------------------------------------------------------------

/// Predicts a quadratic bowl around `optimum`. Aimed at the evaluator's
/// true optimum it is a perfect surrogate; aimed elsewhere it is an
/// adversarial one (ranks the true-best configurations worst).
class BowlModel final : public ml::Regressor {
 public:
  explicit BowlModel(std::vector<double> optimum, double base = 1.0)
      : optimum_(std::move(optimum)), base_(base) {}
  void fit(const ml::Dataset&) override {}
  double predict(std::span<const double> x) const override {
    double y = base_;
    for (std::size_t i = 0; i < x.size(); ++i)
      y += (x[i] - optimum_[i]) * (x[i] - optimum_[i]);
    return y;
  }
  bool is_fitted() const noexcept override { return true; }
  std::string name() const override { return "bowl"; }

 private:
  std::vector<double> optimum_;
  double base_;
};

/// Predicts cheap only for the tiny corner v0==0 && v1==0, expensive for
/// everything else: the 20 % pruning cutoff lands above the plateau, so
/// an unguarded RS_p prunes ~99 % of all draws — the starvation case.
class PlateauModel final : public ml::Regressor {
 public:
  void fit(const ml::Dataset&) override {}
  double predict(std::span<const double> x) const override {
    return (x[0] == 0.0 && x[1] == 0.0) ? 0.1 : 1.0;
  }
  bool is_fitted() const noexcept override { return true; }
  std::string name() const override { return "plateau"; }
};

// ---------------------------------------------------------------------
// TrustMonitor units
// ---------------------------------------------------------------------

TEST(TrustMonitor, TrustsWithoutEvidence) {
  GuardOptions opt;
  opt.enabled = true;
  TrustMonitor m(opt, "test");
  EXPECT_DOUBLE_EQ(m.trust(), 1.0);
  // Fewer than min_observations pairs — even wildly anti-correlated
  // ones — must not move the state.
  for (int i = 0; i < 9; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(-i), i + 1);
  EXPECT_EQ(m.state(), GuardState::Trusted);
  EXPECT_DOUBLE_EQ(m.trust(), 1.0);
}

TEST(TrustMonitor, AnticorrelationCollapsesTrust) {
  GuardOptions opt;
  opt.enabled = true;
  TrustMonitor m(opt, "test");
  for (int i = 0; i < 10; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(-i), i + 1);
  // Ten perfectly anti-correlated pairs: spearman == -1, straight past
  // both floors into Disabled.
  EXPECT_EQ(m.state(), GuardState::Disabled);
  EXPECT_LT(m.trust(), opt.disable_floor);
  ASSERT_EQ(m.timeline().size(), 1u);
  EXPECT_EQ(m.timeline()[0].reason, "trust-collapse");
  EXPECT_EQ(m.timeline()[0].from, GuardState::Trusted);
}

TEST(TrustMonitor, DisabledIsSticky) {
  GuardOptions opt;
  opt.enabled = true;
  TrustMonitor m(opt, "test");
  for (int i = 0; i < 10; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(-i), i + 1);
  ASSERT_EQ(m.state(), GuardState::Disabled);
  // A flood of perfectly correlated evidence afterwards: still Disabled.
  for (int i = 0; i < 50; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(i), 10 + i + 1);
  EXPECT_EQ(m.state(), GuardState::Disabled);
  EXPECT_EQ(m.timeline().size(), 1u);
}

TEST(TrustMonitor, DegradesAndRecovers) {
  GuardOptions opt;
  opt.enabled = true;
  opt.disable_floor = -2.0;  // unreachable: isolate the Degraded band
  TrustMonitor m(opt, "test");
  std::size_t evals = 0;
  for (int i = 0; i < 12; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(-i), ++evals);
  EXPECT_EQ(m.state(), GuardState::Degraded);
  // The window is 25 wide: feed enough correlated pairs to flush the
  // anti-correlated prefix out and lift the windowed statistic back up.
  for (int i = 0; i < 40; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(i), ++evals);
  EXPECT_EQ(m.state(), GuardState::Trusted);
  ASSERT_EQ(m.timeline().size(), 2u);
  EXPECT_EQ(m.timeline()[0].reason, "trust-floor");
  EXPECT_EQ(m.timeline()[1].reason, "recovered");
}

TEST(TrustMonitor, StarvationCapTripsOnce) {
  GuardOptions opt;
  opt.enabled = true;
  opt.max_consecutive_prunes = 5;
  TrustMonitor m(opt, "test");
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(m.note_prune(0));
  EXPECT_EQ(m.state(), GuardState::Trusted);
  EXPECT_TRUE(m.note_prune(0));  // the 6th trips the cap
  EXPECT_EQ(m.state(), GuardState::Disabled);
  EXPECT_FALSE(m.note_prune(0));  // already disabled: no re-trip
  ASSERT_EQ(m.timeline().size(), 1u);
  EXPECT_EQ(m.timeline()[0].reason, "starvation");
}

TEST(TrustMonitor, PassResetsTheConsecutiveCounter) {
  GuardOptions opt;
  opt.enabled = true;
  opt.max_consecutive_prunes = 5;
  TrustMonitor m(opt, "test");
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 5; ++i) EXPECT_FALSE(m.note_prune(0));
    m.note_pass();  // a survivor resets the run length
  }
  EXPECT_EQ(m.state(), GuardState::Trusted);
  EXPECT_EQ(m.consecutive_prunes(), 0u);
}

TEST(TrustMonitor, RefitResetsTheEvidence) {
  GuardOptions opt;
  opt.enabled = true;
  opt.disable_floor = -2.0;
  TrustMonitor m(opt, "test");
  for (int i = 0; i < 12; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(-i), i + 1);
  ASSERT_EQ(m.state(), GuardState::Degraded);
  EXPECT_FALSE(m.refit_spent());
  m.note_refit(12);
  EXPECT_EQ(m.state(), GuardState::Trusted);
  EXPECT_TRUE(m.refit_spent());
  EXPECT_EQ(m.observations(), 0u);  // stale evidence discarded
  EXPECT_DOUBLE_EQ(m.trust(), 1.0);
  ASSERT_EQ(m.timeline().size(), 2u);
  EXPECT_EQ(m.timeline()[1].reason, "refit");
}

TEST(TrustMonitor, TransitionsInvokeTheCallbackAndEmitEvents) {
  obs::MemorySink sink;
  obs::ScopedSinkRedirect redirect(&sink, obs::Severity::Warn);
  GuardOptions opt;
  opt.enabled = true;
  std::vector<std::string> seen;
  opt.on_transition = [&seen](const GuardTransition& tr) {
    seen.push_back(tr.reason);
  };
  TrustMonitor m(opt, "RS_test");
  for (int i = 0; i < 10; ++i)
    m.observe(static_cast<double>(i), static_cast<double>(-i), i + 1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "trust-collapse");

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "guard.state");
  bool found_search = false, found_to = false;
  for (const auto& f : events[0].fields) {
    if (f.key == "search") found_search = f.value == "RS_test";
    if (f.key == "to") found_to = f.value == "disabled";
  }
  EXPECT_TRUE(found_search);
  EXPECT_TRUE(found_to);
}

// ---------------------------------------------------------------------
// RS_p / RS_b behavior under the guard
// ---------------------------------------------------------------------

/// Target landscape: optimum at the {0,0,0,0} corner. The adversarial
/// surrogate puts its bowl at the opposite corner {9,9,9,9}, so it ranks
/// the true-best configurations as the very worst.
QuadraticEvaluator make_target() {
  return QuadraticEvaluator("B", {0, 0, 0, 0}, {1, 1, 1, 1});
}

GuardOptions quick_guard() {
  GuardOptions g;
  g.enabled = true;
  g.window = 15;
  g.min_observations = 8;
  return g;
}

TEST(GuardedSearch, MisleadingModelCannotSinkRSp) {
  auto target = make_target();
  const BowlModel hostile({9, 9, 9, 9});

  SearchOptions rs_opt;
  rs_opt.max_evals = 60;
  rs_opt.seed = 5;
  const auto rs = random_search(target, rs_opt);

  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 5;
  opt.pool_size = 2000;
  opt.max_draws = 5000;
  const auto unguarded = pruned_random_search(target, hostile, opt);

  opt.guard = quick_guard();
  const auto guarded = pruned_random_search(target, hostile, opt);

  // The unguarded search follows the hostile bowl into the wrong corner
  // and misses; the guarded one disables pruning once trust collapses
  // and ends within 5 % of plain RS at the same budget.
  EXPECT_LE(guarded.best_seconds(), rs.best_seconds() * 1.05)
      << "guarded " << guarded.best_seconds() << " vs RS "
      << rs.best_seconds();
  EXPECT_GT(unguarded.best_seconds(), rs.best_seconds() * 1.05)
      << "the adversarial model was not adversarial enough for this test";
  EXPECT_LT(guarded.best_seconds(), unguarded.best_seconds());
}

TEST(GuardedSearch, MisleadingModelCannotSinkRSb) {
  auto target = make_target();
  const BowlModel hostile({9, 9, 9, 9});

  SearchOptions rs_opt;
  rs_opt.max_evals = 60;
  rs_opt.seed = 5;
  const auto rs = random_search(target, rs_opt);

  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 5;
  opt.pool_size = 2000;
  const auto unguarded = biased_random_search(target, hostile, opt);

  opt.guard = quick_guard();
  const auto guarded = biased_random_search(target, hostile, opt);

  // Falling back to draw order turns the remainder of RS_b into plain RS
  // over the same sample sequence.
  EXPECT_LE(guarded.best_seconds(), rs.best_seconds() * 1.05)
      << "guarded " << guarded.best_seconds() << " vs RS "
      << rs.best_seconds();
  EXPECT_GT(unguarded.best_seconds(), rs.best_seconds() * 1.05)
      << "the adversarial model was not adversarial enough for this test";
}

TEST(GuardedSearch, AccurateModelLeavesTracesIdentical) {
  // With the surrogate aimed at the true optimum the guard never leaves
  // Trusted, and the guarded searches must reproduce their unguarded
  // traces bit for bit (the "do no harm" half of the acceptance bar).
  auto target = make_target();
  const BowlModel faithful({0, 0, 0, 0});

  SearchOptions p_opt;
  p_opt.max_evals = 40;
  p_opt.seed = 11;
  p_opt.pool_size = 1000;
  p_opt.max_draws = 4000;
  const auto p_plain = pruned_random_search(target, faithful, p_opt);
  p_opt.guard = quick_guard();
  std::size_t p_fired = 0;
  p_opt.guard.on_transition = [&p_fired](const GuardTransition&) {
    ++p_fired;
  };
  const auto p_guarded = pruned_random_search(target, faithful, p_opt);
  EXPECT_EQ(p_fired, 0u);
  EXPECT_EQ(canonical_csv(p_plain, target.space()),
            canonical_csv(p_guarded, target.space()));

  SearchOptions b_opt;
  b_opt.max_evals = 40;
  b_opt.seed = 11;
  b_opt.pool_size = 1000;
  const auto b_plain = biased_random_search(target, faithful, b_opt);
  b_opt.guard = quick_guard();
  std::size_t b_fired = 0;
  b_opt.guard.on_transition = [&b_fired](const GuardTransition&) {
    ++b_fired;
  };
  const auto b_guarded = biased_random_search(target, faithful, b_opt);
  EXPECT_EQ(b_fired, 0u);
  EXPECT_EQ(canonical_csv(b_plain, target.space()),
            canonical_csv(b_guarded, target.space()));
}

TEST(GuardedSearch, DegradedStateRelaxesThePruningCutoff) {
  // Pin the guard in Degraded (floor above any achievable trust, disable
  // floor below): the relaxed cutoff admits roughly half of what the
  // strict one pruned, so reaching the same budget consumes fewer draws.
  auto target = make_target();
  const BowlModel hostile({9, 9, 9, 9});

  SearchOptions opt;
  opt.max_evals = 50;
  opt.seed = 3;
  opt.pool_size = 2000;
  opt.max_draws = 8000;
  const auto strict = pruned_random_search(target, hostile, opt);

  opt.guard = quick_guard();
  opt.guard.floor = 1.5;           // trust can never reach it: Degraded
  opt.guard.disable_floor = -2.0;  // and never Disabled
  const auto relaxed = pruned_random_search(target, hostile, opt);

  ASSERT_EQ(strict.size(), relaxed.size());
  EXPECT_LT(relaxed.entries().back().draw_index,
            strict.entries().back().draw_index);
}

TEST(GuardedSearch, StarvationCapKeepsRSpAlive) {
  // The plateau model prices ~99 % of the space above the cutoff: the
  // unguarded scan burns its whole draw budget pruning, while the guard
  // trips the starvation cap, stops pruning, and fills the eval budget.
  auto target = make_target();
  const PlateauModel plateau;

  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 9;
  opt.pool_size = 2000;
  opt.max_draws = 2000;
  const auto unguarded = pruned_random_search(target, plateau, opt);

  opt.guard = quick_guard();
  opt.guard.max_consecutive_prunes = 30;
  std::vector<std::string> reasons;
  opt.guard.on_transition = [&reasons](const GuardTransition& tr) {
    reasons.push_back(tr.reason);
  };
  const auto guarded = pruned_random_search(target, plateau, opt);

  EXPECT_LT(unguarded.size(), opt.max_evals);  // starved
  EXPECT_EQ(guarded.size(), opt.max_evals);    // rescued
  ASSERT_FALSE(reasons.empty());
  EXPECT_NE(std::find(reasons.begin(), reasons.end(), "starvation"),
            reasons.end());
}

TEST(GuardedSearch, RefitRescuesRSbUnderInjectedFaults) {
  // Degraded trust plus enough accumulated target rows triggers the one
  // hybrid refit: source rows give the forest coverage of the whole
  // space, the (weighted) target rows correct it where it was wrong, and
  // the re-ranked pool steers toward the true optimum. Injected faults
  // (every config with v3 == 7 fails) must not derail the accounting.
  auto target = make_target();
  target.fail_when = [&target](const ParamConfig& c) {
    return target.space().features(c)[3] == 7.0;
  };
  const BowlModel hostile({9, 9, 9, 9});

  // The "source machine" here is a similar one (same optimum, scaled
  // times): its RS trace is what the hybrid refit mixes with the target
  // observations, exactly as run_transfer_experiment wires T_a in.
  QuadraticEvaluator source("A", {0, 0, 0, 0}, {2, 2, 2, 2}, 2.0);
  SearchOptions src_opt;
  src_opt.max_evals = 60;
  src_opt.seed = 29;
  const auto source_rs = random_search(source, src_opt);

  SearchOptions opt;
  opt.max_evals = 80;
  opt.seed = 17;
  opt.pool_size = 2000;
  opt.guard = quick_guard();
  opt.guard.disable_floor = -2.0;  // stay Degraded so the refit can fire
  opt.guard.refit_after = 20;
  opt.guard.refit_source = &source_rs;
  opt.guard.refit_forest.num_trees = 16;
  std::vector<std::string> reasons;
  opt.guard.on_transition = [&reasons](const GuardTransition& tr) {
    reasons.push_back(tr.reason);
  };
  const auto guarded = biased_random_search(target, hostile, opt);

  // Same budget, no guard: the hostile ranking walks the pool from the
  // wrong corner inward for all 80 evaluations.
  SearchOptions plain;
  plain.max_evals = 80;
  plain.seed = 17;
  plain.pool_size = 2000;
  const auto unguarded = biased_random_search(target, hostile, plain);

  EXPECT_NE(std::find(reasons.begin(), reasons.end(), "refit"),
            reasons.end())
      << "the refit never fired";
  // After the refit the model actually understands the target: the rest
  // of the budget concentrates near the optimum instead of finishing the
  // hostile tour of the wrong corner.
  EXPECT_LT(guarded.best_seconds(), unguarded.best_seconds());
  EXPECT_LE(guarded.best_seconds(), target.optimum_value() + 10.0)
      << "the refitted model failed to steer toward the optimum";
  EXPECT_GT(guarded.failure_stats().failures, 0u)  // faults did fire
      << "fail_when never triggered; weaken the predicate";
}

TEST(GuardedSearch, ParallelEvaluationPreservesGuardedTraces) {
  // The guard reacts to observed results, so its decisions are order-
  // sensitive — the fixed sync window must make serial and 4-worker runs
  // bit-identical even while the guard fires mid-search.
  auto serial_eval = make_target();
  const BowlModel hostile({9, 9, 9, 9});

  SearchOptions opt;
  opt.max_evals = 60;
  opt.seed = 5;
  opt.pool_size = 2000;
  opt.max_draws = 5000;
  opt.guard = quick_guard();
  const auto serial = pruned_random_search(serial_eval, hostile, opt);

  auto backend = make_target();
  ParallelOptions popt;
  popt.threads = 4;
  ParallelEvaluator par(backend, popt);
  const auto parallel = pruned_random_search(par, hostile, opt);
  EXPECT_EQ(canonical_csv(serial, serial_eval.space()),
            canonical_csv(parallel, backend.space()));

  SearchOptions b_opt;
  b_opt.max_evals = 60;
  b_opt.seed = 5;
  b_opt.pool_size = 2000;
  b_opt.guard = quick_guard();
  auto serial_eval_b = make_target();
  const auto b_serial = biased_random_search(serial_eval_b, hostile, b_opt);
  auto backend_b = make_target();
  ParallelEvaluator par_b(backend_b, popt);
  const auto b_parallel = biased_random_search(par_b, hostile, b_opt);
  EXPECT_EQ(canonical_csv(b_serial, serial_eval_b.space()),
            canonical_csv(b_parallel, backend_b.space()));
}

}  // namespace
}  // namespace portatune::tuner
