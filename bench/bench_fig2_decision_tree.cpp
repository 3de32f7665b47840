// Figure 2: the decision tree obtained from matrix-multiplication data on
// Intel Sandybridge. The paper shows if-else rules over the unroll (U_*)
// and register-tiling (RT_*) parameters with leaf mean run times. We fit
// the surrogate exactly as the transfer pipeline does (RS data, random
// forest) and render the first tree, plus the forest's permutation
// feature importances.
#include <cstdio>

#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "ml/forest.hpp"
#include "tuner/random_search.hpp"

using namespace portatune;

int main() {
  const auto mm = kernels::make_mm();
  kernels::SimulatedKernelEvaluator sb(mm, sim::make_sandybridge());

  tuner::SearchOptions rs_opt;
  rs_opt.max_evals = 100;
  rs_opt.seed = 20160401;
  const auto trace = tuner::random_search(sb, rs_opt);
  const auto data = trace.to_dataset(mm->space());

  // A shallow display tree (as in the figure)...
  ml::TreeParams shallow;
  shallow.max_depth = 4;
  shallow.min_samples_leaf = 5;
  ml::RegressionTree display_tree(shallow);
  display_tree.fit(data);
  std::printf(
      "Figure 2: decision tree from MM data on Sandybridge (run times in "
      "seconds)\n\n%s\n",
      display_tree.to_text(mm->space().names()).c_str());

  // ...and the full forest the searches actually use.
  ml::ForestParams fp;
  fp.seed = rs_opt.seed;
  ml::RandomForest forest(fp);
  forest.fit(data);
  std::printf("forest: %zu trees, OOB RMSE %.4f s\n", forest.num_trees(),
              forest.oob_rmse(data));
  std::printf("\npermutation feature importances:\n");
  const auto imp = forest.feature_importances(data);
  const auto names = mm->space().names();
  for (std::size_t i = 0; i < imp.size(); ++i)
    std::printf("  %-6s %.3f\n", names[i].c_str(), imp[i]);

  std::printf("\nDOT rendering of the display tree (head):\n%.400s...\n",
              display_tree.to_dot(names).c_str());
  return 0;
}
