// Compiler-flag tuning of the raytracer mini-app (paper Sec. IV-C "RT"):
// 143 boolean g++ flags + 104 valued parameters, searched with the
// OpenTuner-style multi-technique bandit ensemble — once cold, and once
// warm-started with a surrogate fitted on another machine's data.
#include <cstdio>

#include "apps/raytracer.hpp"
#include "sim/machine.hpp"
#include "tuner/heuristics.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

int main() {
  using namespace portatune;

  apps::SimulatedRaytracerEvaluator westmere(sim::make_westmere());
  apps::SimulatedRaytracerEvaluator sandybridge(sim::make_sandybridge());

  std::printf("RT flag space: %zu tunables, |D| = %.2e\n",
              sandybridge.space().num_params(),
              sandybridge.space().cardinality());

  // Cold ensemble search on Sandybridge.
  tuner::SearchOptions opt;
  opt.seed = 7;
  const auto cold_trace = tuner::ensemble_search(sandybridge, opt);

  // Warm ensemble: fit the surrogate on Westmere RS data (the paper
  // protocol's defaults), seed with it.
  const auto source = tuner::random_search(westmere, tuner::SearchOptions{});
  const auto surrogate = tuner::fit_surrogate(source, westmere.space());
  const auto warm_trace =
      tuner::ensemble_search(sandybridge, opt, surrogate.get());

  std::printf("default flags (-O3 only):  %.3f s\n",
              sandybridge.evaluate(sandybridge.space().default_config())
                  .seconds);
  std::printf("cold ensemble best:        %.3f s (at %.1f s of search)\n",
              cold_trace.best_seconds(), cold_trace.time_to_best());
  std::printf("warm-started ensemble best: %.3f s (at %.1f s of search)\n",
              warm_trace.best_seconds(), warm_trace.time_to_best());

  // Which flags did the warm search settle on? Print the enabled subset.
  const auto& best = warm_trace.best_config();
  std::printf("enabled flags in the best configuration: ");
  int shown = 0;
  for (std::size_t p = 0; p < 143 && shown < 12; ++p) {
    if (best[p] != 0) {
      std::printf("%sF%zu", shown ? "," : "", p);
      ++shown;
    }
  }
  std::printf(",...\n");
  return 0;
}
