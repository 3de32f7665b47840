// Ablation A3: surrogate family. The paper argues (via its earlier
// performance-modeling studies) that recursive partitioning suits
// autotuning landscapes; here RS_b runs with a random forest, a single
// CART tree, kNN and a ridge linear model as the surrogate, on two
// kernels and two transfer pairs.
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/tree.hpp"
#include "tuner/random_search.hpp"

using namespace portatune;

namespace {

std::vector<std::pair<std::string, ml::RegressorPtr>> surrogates(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, ml::RegressorPtr>> out;
  ml::ForestParams fp;
  fp.seed = seed;
  out.emplace_back("random forest", std::make_unique<ml::RandomForest>(fp));
  ml::TreeParams tp;
  tp.seed = seed;
  tp.min_samples_leaf = 3;
  out.emplace_back("single tree", std::make_unique<ml::RegressionTree>(tp));
  out.emplace_back("kNN (k=5)", std::make_unique<ml::KnnRegressor>());
  out.emplace_back("ridge linear",
                   std::make_unique<ml::LinearRegressor>());
  return out;
}

}  // namespace

int main() {
  const auto settings = bench::paper_settings();
  std::printf("Ablation A3: surrogate family under RS_b "
              "(Prf.Imp / Srh.Imp vs RS)\n\n");
  TextTable t({"problem", "pair", "surrogate", "best (s)", "Prf.Imp",
               "Srh.Imp"});
  const std::pair<std::string, std::string> pairs[] = {
      {"Westmere", "Sandybridge"}, {"Sandybridge", "Power7"}};
  for (const auto& problem : {std::string("LU"), std::string("MM")}) {
    const auto prob = kernels::spapt_by_name(problem);
    for (const auto& [src, dst] : pairs) {
      kernels::SimulatedKernelEvaluator source_eval(
          prob, sim::machine_by_name(src));
      const auto source = tuner::random_search(source_eval, settings);
      kernels::SimulatedKernelEvaluator rs_eval(prob,
                                                sim::machine_by_name(dst));
      std::vector<tuner::ParamConfig> order;
      for (const auto& e : source.entries()) order.push_back(e.config);
      const auto rs = tuner::replay_search(rs_eval, order, settings);
      const auto data = source.to_dataset(prob->space());

      for (auto& [name, model] : surrogates(settings.seed)) {
        model->fit(data);
        kernels::SimulatedKernelEvaluator target(
            prob, sim::machine_by_name(dst));
        const auto trace =
            tuner::biased_random_search(target, *model, settings);
        const auto s = tuner::compare_to_rs(rs, trace);
        t.add_row({problem, src + "->" + dst, name,
                   TextTable::num(trace.best_seconds()),
                   TextTable::num(s.performance, 2),
                   TextTable::num(s.search, 2)});
      }
    }
  }
  t.print(std::cout);
  return 0;
}
