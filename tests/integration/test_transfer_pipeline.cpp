// Integration tests: the full paper pipeline on the simulated machines.
// These assert the *shape* results of Sec. V (see DESIGN.md) end to end —
// kernels -> machine model -> surrogate -> transfer-guided search.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/registry.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "tuner/experiment.hpp"
#include "tuner/faults.hpp"
#include "tuner/resilience.hpp"

namespace portatune {
namespace {

using tuner::ExperimentSettings;
using tuner::run_transfer_experiment;

ExperimentSettings paper_settings() {
  ExperimentSettings s;  // n_max = 100, N = 10000, delta = 20 %
  s.seed = 20160401;
  return s;
}

TEST(TransferPipeline, Fig1IntelSiblingsCorrelateStrongly) {
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  const auto r = run_transfer_experiment(wm, sb, paper_settings());
  // Paper Fig. 1: rho_p and rho_s > 0.8 between Westmere and Sandybridge.
  EXPECT_GT(r.pearson, 0.8);
  EXPECT_GT(r.spearman, 0.8);
}

TEST(TransferPipeline, BiasingBeatsPruningWestmereToSandybridge) {
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  const auto r = run_transfer_experiment(wm, sb, paper_settings());
  EXPECT_TRUE(r.biased_speedup.successful());
  // Sec. V: "RS_b outperforms RS_p primarily with respect to search time
  // speedups".
  EXPECT_GE(r.biased_speedup.search, r.pruned_speedup.search);
  EXPECT_GT(r.biased_speedup.search, 1.6);
}

TEST(TransferPipeline, ModelFreeBiasingCannotImprovePerformance) {
  auto mm = kernels::make_mm();
  kernels::SimulatedKernelEvaluator wm(mm, sim::make_westmere());
  kernels::SimulatedKernelEvaluator sb(mm, sim::make_sandybridge());
  const auto r = run_transfer_experiment(wm, sb, paper_settings());
  // RS_bf replays RS's configurations: performance speedup is exactly 1.
  EXPECT_NEAR(r.biased_mf_speedup.performance, 1.0, 1e-9);
  // But it reaches the best configuration much sooner.
  EXPECT_GT(r.biased_mf_speedup.search, 1.0);
}

TEST(TransferPipeline, SandybridgeTransfersToPower7) {
  // Paper Sec. V: "for the first time... performance correlations between
  // Intel Sandybridge and IBM Power 7" — LU transfers cross-vendor.
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  kernels::SimulatedKernelEvaluator p7(lu, sim::make_power7());
  const auto r = run_transfer_experiment(sb, p7, paper_settings());
  EXPECT_GE(r.biased_speedup.performance, 1.0);
  EXPECT_GT(r.biased_speedup.search, 1.0);
}

TEST(TransferPipeline, ApproachFailsOnXGene) {
  // Paper Sec. V: "RS variants do not achieve any significant search time
  // and performance speedups over RS" on the ARM X-Gene.
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  kernels::SimulatedKernelEvaluator xg(lu, sim::make_xgene());
  const auto r = run_transfer_experiment(sb, xg, paper_settings());
  EXPECT_LT(r.spearman, 0.5);  // far below the Intel-sibling correlation
  EXPECT_LT(r.biased_speedup.search, 1.6);
}

TEST(TransferPipeline, XeonPhiDefaultIsBestForMm) {
  // Paper Sec. V (Table V discussion): with the Intel compiler, the
  // untransformed MM source is the best variant on the Xeon Phi.
  auto mm = kernels::make_mm();
  kernels::SimulatedKernelEvaluator phi(
      mm, sim::make_xeon_phi(sim::Compiler::Intel), 60);
  const double default_time =
      phi.evaluate(mm->space().default_config()).seconds;
  const auto rs = tuner::random_search(phi, paper_settings());
  EXPECT_LT(default_time, rs.best_seconds());
}

TEST(TransferPipeline, XeonPhiLuTransfersFromSandybridge) {
  // Table V: LU is where the Phi transfer shines.
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator sb(
      lu, sim::make_sandybridge(sim::Compiler::Intel), 8);
  kernels::SimulatedKernelEvaluator phi(
      lu, sim::make_xeon_phi(sim::Compiler::Intel), 60);
  const auto r = run_transfer_experiment(sb, phi, paper_settings());
  EXPECT_GE(r.biased_speedup.performance, 1.0);
  EXPECT_GT(r.biased_speedup.search, 1.0);
}

TEST(TransferPipeline, HplCorrelatesWeakly) {
  // Sec. V: "Except for HPL, the plots exhibit a high correlation."
  auto wm = apps::make_simulated_evaluator("HPL", "Westmere");
  auto sb = apps::make_simulated_evaluator("HPL", "Sandybridge");
  const auto r = run_transfer_experiment(*wm, *sb, paper_settings());
  EXPECT_LT(r.pearson, 0.5);

  auto lu_wm = apps::make_simulated_evaluator("LU", "Westmere");
  auto lu_sb = apps::make_simulated_evaluator("LU", "Sandybridge");
  const auto r_lu =
      run_transfer_experiment(*lu_wm, *lu_sb, paper_settings());
  EXPECT_GT(r_lu.pearson, r.pearson + 0.2);
}

TEST(TransferPipeline, SurvivesTenPercentTransientFaults) {
  // The whole experiment runs behind the resilience stack: a fault
  // injector failing 10% of attempts transiently, wrapped in a retrying
  // ResilientEvaluator. The pipeline must complete with finite speedups,
  // visible failure accounting — and deterministically for a fixed seed.
  const auto run_faulty = [] {
    auto lu = kernels::make_lu();
    kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
    kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
    tuner::FaultProfile profile;
    profile.transient_rate = 0.10;
    profile.seed = 7;
    tuner::FaultInjectingEvaluator wm_faulty(wm, profile);
    tuner::FaultInjectingEvaluator sb_faulty(sb, profile);
    tuner::ResilientEvaluator wm_res(wm_faulty);
    tuner::ResilientEvaluator sb_res(sb_faulty);
    ExperimentSettings s = paper_settings();
    s.max_evals = 40;
    s.pool_size = 1000;
    s.forest.num_trees = 16;
    auto r = run_transfer_experiment(wm_res, sb_res, s);
    const std::size_t retries =
        wm_res.stats().retries + sb_res.stats().retries;
    return std::make_pair(std::move(r), retries);
  };

  const auto [r, retries] = run_faulty();
  EXPECT_EQ(r.source_rs.size(), 40u);
  EXPECT_GT(r.biased.size(), 0u);
  EXPECT_TRUE(std::isfinite(r.biased_speedup.performance));
  EXPECT_TRUE(std::isfinite(r.biased_speedup.search));
  EXPECT_GT(r.biased_speedup.performance, 0.0);
  EXPECT_GT(r.biased_speedup.search, 0.0);
  // The injected faults are visible in the failure accounting.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(r.failures.attempts,
            r.source_rs.size() + r.target_rs.size());
  EXPECT_GT(r.failures.overhead_seconds, 0.0);
  // No search hit its failure budget at this fault rate.
  EXPECT_TRUE(r.aborted_searches.empty());

  // Bit-for-bit reproducible: the fault schedule is a pure function of
  // (seed, config, attempt), so a second run is identical.
  const auto [r2, retries2] = run_faulty();
  EXPECT_EQ(retries2, retries);
  EXPECT_EQ(r2.failures.attempts, r.failures.attempts);
  EXPECT_EQ(r2.biased.best_seconds(), r.biased.best_seconds());
  EXPECT_EQ(r2.biased_speedup.search, r.biased_speedup.search);
}

TEST(TransferPipeline, EveryPaperProblemRunsEndToEnd) {
  ExperimentSettings quick = paper_settings();
  quick.max_evals = 20;
  quick.pool_size = 300;
  quick.forest.num_trees = 16;
  for (const auto& prob : apps::all_problem_names()) {
    auto a = apps::make_simulated_evaluator(prob, "Westmere");
    auto b = apps::make_simulated_evaluator(prob, "Sandybridge");
    const auto r = run_transfer_experiment(*a, *b, quick);
    EXPECT_EQ(r.source_rs.size(), 20u) << prob;
    EXPECT_GT(r.biased.size(), 0u) << prob;
    EXPECT_GT(r.biased_speedup.performance, 0.0) << prob;
  }
}

}  // namespace
}  // namespace portatune
