// Ablation A1: the RS_p cutoff parameter delta. The paper fixes delta at
// 20% and notes that the conservative pruning strategy "does not result
// in significant speedups, which can be attributed to the cutoff
// parameter". This sweep quantifies that: small delta prunes harder
// (more speedup, more risk), large delta degenerates to plain RS.
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

using namespace portatune;

int main() {
  const auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  const auto settings = bench::paper_settings();

  const auto source = tuner::random_search(wm, settings);
  ml::ForestParams fp = settings.forest;
  fp.seed = settings.seed;
  const auto model = tuner::fit_surrogate(source, lu->space(), fp);

  // Reference RS on the target (CRN replay).
  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  std::vector<tuner::ParamConfig> order;
  for (const auto& e : source.entries()) order.push_back(e.config);
  const auto rs = tuner::replay_search(sb, order, settings);

  std::printf("Ablation A1: RS_p cutoff delta sweep (LU, Westmere -> "
              "Sandybridge; paper uses delta = 20%%)\n\n");
  TextTable t({"delta %", "evaluations", "best (s)", "Prf.Imp", "Srh.Imp",
               "successful"});
  for (const double delta : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0}) {
    kernels::SimulatedKernelEvaluator target(lu, sim::make_sandybridge());
    tuner::SearchOptions opt = settings;
    opt.delta_percent = delta;
    const auto trace = tuner::pruned_random_search(target, *model, opt);
    const auto s = tuner::compare_to_rs(rs, trace);
    t.add_row({TextTable::num(delta, 0), std::to_string(trace.size()),
               TextTable::num(trace.best_seconds()),
               TextTable::num(s.performance, 2), TextTable::num(s.search, 2),
               s.successful() ? "yes" : "no"});
  }
  t.print(std::cout);
  return 0;
}
