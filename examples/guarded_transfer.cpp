// Guarded transfer on the dissimilar-machine cell.
//
// The paper's Tables IV/V show transfer from an X-Gene source is the
// risky case: its rank correlation with the x86 targets is far below the
// Westmere<->Sandybridge 0.8+, so the transferred surrogate can prune or
// deprioritize exactly the configurations that are fast on the target.
// This driver runs the full Sec. IV-D experiment for that cell twice —
// guard off, then guard on (see src/tuner/guard.hpp) — and reports how
// far each variant's best lands from plain RS at the same budget,
// plus the guard's state-transition timeline. The guarded searches
// bound the worst-case regression: once trust collapses they degenerate
// to plain RS instead of following the misleading model to the end.
#include <cstdio>

#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "sim/machine.hpp"
#include "tuner/experiment.hpp"

int main() {
  using namespace portatune;

  auto problem = kernels::make_lu();

  const auto run = [&](bool guard_on) {
    kernels::SimulatedKernelEvaluator xgene(problem, sim::make_xgene());
    kernels::SimulatedKernelEvaluator sandybridge(problem,
                                                  sim::make_sandybridge());
    tuner::ExperimentSettings s;  // nmax=100, N=10000, delta=20%
    s.guard.enabled = guard_on;
    s.guard.refit_after = 30;  // RS_b rescue refit once 30 target rows exist
    return tuner::run_transfer_experiment(xgene, sandybridge, s);
  };

  const auto off = run(false);
  const auto on = run(true);

  std::printf("LU: X-Gene -> Sandybridge (the dissimilar-machine cell)\n");
  std::printf("run-time correlation over the shared RS configurations:\n");
  std::printf("  pearson %.3f   spearman %.3f   top-20%% overlap %.2f\n\n",
              off.pearson, off.spearman, off.top_overlap);

  const double rs_best = off.target_rs.best_seconds();
  std::printf("plain RS best on target: %.4f s\n\n", rs_best);

  const auto row = [&](const char* name, const tuner::SearchTrace& t) {
    const double gap = (t.best_seconds() - rs_best) / rs_best * 100.0;
    std::printf("%-18s best %.4f s  (%+.1f%% vs RS)\n", name,
                t.best_seconds(), gap);
  };
  std::printf("guard off (trusts the X-Gene surrogate unconditionally):\n");
  row("  RS_p", off.pruned);
  row("  RS_b", off.biased);
  std::printf("guard on (trust-monitored degradation):\n");
  row("  RS_p", on.pruned);
  row("  RS_b", on.biased);

  if (on.guard_log.empty()) {
    std::printf("\nguard timeline: (never fired — the surrogate held up)\n");
  } else {
    std::printf("\nguard timeline:\n");
    for (const auto& line : on.guard_log)
      std::printf("  %s\n", line.c_str());
  }
  return 0;
}
