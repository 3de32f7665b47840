// Ablation A2: candidate-pool size N and forest size for RS_b. The paper
// fixes N = 10000 ("can be any large arbitrary value") and uses a stock
// random forest; this sweep shows how both knobs shape the transfer.
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "support/timer.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

using namespace portatune;

int main() {
  const auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  const auto settings = bench::paper_settings();
  const auto source = tuner::random_search(wm, settings);

  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  std::vector<tuner::ParamConfig> order;
  for (const auto& e : source.entries()) order.push_back(e.config);
  const auto rs = tuner::replay_search(sb, order, settings);

  std::printf("Ablation A2a: RS_b pool size N (LU, Westmere -> "
              "Sandybridge; paper uses N = 10000, 64-tree forest)\n\n");
  {
    ml::ForestParams fp = settings.forest;
    fp.seed = settings.seed;
    const auto model = tuner::fit_surrogate(source, lu->space(), fp);
    TextTable t({"N", "best (s)", "Prf.Imp", "Srh.Imp"});
    for (const std::size_t pool : {100u, 1000u, 10000u, 50000u}) {
      kernels::SimulatedKernelEvaluator target(lu, sim::make_sandybridge());
      tuner::SearchOptions opt = settings;
      opt.pool_size = pool;
      const auto trace = tuner::biased_random_search(target, *model, opt);
      const auto s = tuner::compare_to_rs(rs, trace);
      t.add_row({std::to_string(pool), TextTable::num(trace.best_seconds()),
                 TextTable::num(s.performance, 2),
                 TextTable::num(s.search, 2)});
    }
    t.print(std::cout);
  }

  std::printf("\nAblation A2b: forest size (trees)\n\n");
  {
    TextTable t({"trees", "fit (ms)", "OOB RMSE", "Prf.Imp", "Srh.Imp"});
    for (const std::size_t trees : {1u, 4u, 16u, 64u, 200u}) {
      ml::ForestParams fp;
      fp.num_trees = trees;
      fp.seed = settings.seed;
      WallTimer timer;
      auto model = std::make_unique<ml::RandomForest>(fp);
      const ml::Dataset data = source.to_dataset(lu->space());
      model->fit(data);
      const double fit_ms = timer.seconds() * 1e3;

      kernels::SimulatedKernelEvaluator target(lu, sim::make_sandybridge());
      const auto trace =
          tuner::biased_random_search(target, *model, settings);
      const auto s = tuner::compare_to_rs(rs, trace);
      t.add_row({std::to_string(trees), TextTable::num(fit_ms, 1),
                 TextTable::num(model->oob_rmse(data), 3),
                 TextTable::num(s.performance, 2),
                 TextTable::num(s.search, 2)});
    }
    t.print(std::cout);
  }
  return 0;
}
