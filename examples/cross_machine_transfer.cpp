// The paper's headline workflow: reuse autotuning data from one machine to
// accelerate the search on another.
//
//   1. describe the transfer once with apps::TuningConfig (problem,
//      source/target machines, budget, CRN seed),
//   2. run the full Sec. IV-D protocol over the two evaluator stacks with
//      tuner::run_transfer_experiment: RS on the source (-> T_a), a
//      random-forest surrogate fitted on T_a, the surrogate-guided
//      searches RS_p (pruning, Algorithm 1) and RS_b (biasing,
//      Algorithm 2) on the target, and the model-free controls,
//   3. report the performance and search-time speedups of Sec. IV-D.
#include <cstdio>

#include "apps/tuning_config.hpp"
#include "tuner/experiment.hpp"

int main() {
  using namespace portatune;

  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machines("Westmere", "Sandybridge");
  auto westmere = cfg.make_stack(apps::StackRole::Source);
  auto sandybridge = cfg.make_stack(apps::StackRole::Target);

  // nmax=100, N=10000, delta=20% — the builder's validated defaults.
  const tuner::ExperimentSettings settings = cfg.experiment_settings();
  const auto result =
      tuner::run_transfer_experiment(*westmere, *sandybridge, settings);

  std::printf("LU: Westmere -> Sandybridge transfer\n");
  std::printf("run-time correlation over the shared RS configurations:\n");
  std::printf("  pearson %.3f   spearman %.3f   top-20%% overlap %.2f\n\n",
              result.pearson, result.spearman, result.top_overlap);

  std::printf("%-28s %10s %14s\n", "variant", "Prf.Imp", "Srh.Imp");
  const auto row = [](const char* name, const tuner::Speedups& s) {
    std::printf("%-28s %9.2fx %13.2fx%s\n", name, s.performance, s.search,
                s.successful() ? "  (successful)" : "");
  };
  row("RS_p  (model pruning)", result.pruned_speedup);
  row("RS_b  (model biasing)", result.biased_speedup);
  row("RS_pf (model-free pruning)", result.pruned_mf_speedup);
  row("RS_bf (model-free biasing)", result.biased_mf_speedup);

  std::printf("\nRS   best on target: %.3f s (reached at %.1f s)\n",
              result.target_rs.best_seconds(),
              result.target_rs.time_to_best());
  std::printf("RS_b best on target: %.3f s (reached at %.1f s)\n",
              result.biased.best_seconds(), result.biased.time_to_best());
  return 0;
}
