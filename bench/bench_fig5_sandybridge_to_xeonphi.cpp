// Figure 5: Intel Sandybridge used to speed the search on the Xeon Phi,
// with the Intel compiler and OpenMP threading (8 threads on the Xeons,
// 60 on the Phi), for MM, LU and COR. The MM panel reproduces the
// paper's observation that the untransformed source is the best variant
// on the Phi (icc performs the transformations itself).
#include <cstdio>

#include "bench/figures_common.hpp"

int main(int argc, char** argv) {
  using namespace portatune;
  bench::print_figure("Figure 5: Intel Sandybridge -> Intel Xeon Phi "
                      "(Intel compiler, OpenMP)",
                      "Sandybridge", "XeonPhi", {"MM", "LU", "COR"},
                      /*phi_experiment=*/true,
                      bench::bench_threads(argc, argv));

  // The MM "default is best" check, stated explicitly.
  auto phi = bench::paper_evaluator("MM", "XeonPhi", true);
  const double def =
      phi->evaluate(phi->space().default_config()).seconds;
  auto rs = tuner::random_search(*phi, bench::paper_settings());
  std::printf("\nMM on Xeon Phi: default (untransformed) %.3f s vs best "
              "of 100 random variants %.3f s -> default %s\n",
              def, rs.best_seconds(),
              def <= rs.best_seconds() ? "IS best (as in the paper)"
                                       : "is NOT best");
  return 0;
}
