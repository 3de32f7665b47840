// Ablation A4 (the paper's Sec. VII future work): does the cross-machine
// surrogate help search algorithms beyond random search? Each algorithm
// runs cold and warm-started (initial points taken from the surrogate's
// best predictions) on LU, transferring Westmere -> Sandybridge.
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "tuner/adaptive.hpp"
#include "tuner/heuristics.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

using namespace portatune;

int main() {
  const auto lu = kernels::make_lu();
  const auto settings = bench::paper_settings();

  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  const auto source = tuner::random_search(wm, settings);
  ml::ForestParams fp = settings.forest;
  fp.seed = settings.seed;
  const auto model = tuner::fit_surrogate(source, lu->space(), fp);

  std::printf("Ablation A4: surrogate warm-starts beyond RS "
              "(LU, Westmere -> Sandybridge, 100-eval budget)\n\n");
  TextTable t({"algorithm", "cold best (s)", "cold t-to-best (s)",
               "warm best (s)", "warm t-to-best (s)"});
  const auto add_row = [&](const char* name, const tuner::SearchTrace& cold,
                           const tuner::SearchTrace& warm) {
    t.add_row({name, TextTable::num(cold.best_seconds()),
               TextTable::num(cold.time_to_best(), 1),
               TextTable::num(warm.best_seconds()),
               TextTable::num(warm.time_to_best(), 1)});
  };

  const struct {
    const char* name;
    tuner::HeuristicSearch search;
  } heuristics[] = {
      {"genetic", tuner::genetic_search},
      {"annealing", tuner::annealing_search},
      {"pattern", tuner::pattern_search},
      {"ensemble", tuner::ensemble_search},
      {"nelder-mead", tuner::nelder_mead_search},
      {"orthogonal", tuner::orthogonal_search},
  };
  for (const auto& h : heuristics) {
    kernels::SimulatedKernelEvaluator cold_eval(lu, sim::make_sandybridge());
    const auto cold = h.search(cold_eval, settings, nullptr);
    kernels::SimulatedKernelEvaluator warm_eval(lu, sim::make_sandybridge());
    const auto warm = h.search(warm_eval, settings, model.get());
    add_row(h.name, cold, warm);
  }

  // The adaptive-refit variant ("warm" column uses the source data, the
  // "cold" column runs the same machinery with no source trace).
  kernels::SimulatedKernelEvaluator cold_eval(lu, sim::make_sandybridge());
  const auto cold =
      tuner::adaptive_biased_search(cold_eval, tuner::SearchTrace{}, settings);
  kernels::SimulatedKernelEvaluator warm_eval(lu, sim::make_sandybridge());
  const auto warm = tuner::adaptive_biased_search(warm_eval, source, settings);
  add_row("adaptive RS_b", cold, warm);

  t.print(std::cout);
  return 0;
}
