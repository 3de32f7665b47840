// Autotune a *real* kernel on the host machine — no simulation anywhere.
//
//   1. parse a mini-Orio annotation for matrix multiply at n = 256,
//   2. tune the cache-tile parameters in process with pattern search
//      (NativeKernelEvaluator times the real blocked kernel),
//   3. regenerate the best variant's C source through the mini-Orio code
//      generator, compile it with the host compiler, and time it against
//      the untransformed default — the full Orio pipeline.
#include <cstdio>

#include "kernels/native.hpp"
#include "orio/annotation.hpp"
#include "orio/codegen.hpp"
#include "orio/compiled.hpp"
#include "support/error.hpp"
#include "tuner/heuristics.hpp"

int main() {
  using namespace portatune;

  auto problem = orio::parse_annotation(orio::example_mm_annotation(192));
  kernels::NativeKernelEvaluator host(problem, /*reps=*/1);

  tuner::SearchOptions opt;
  opt.max_evals = 24;
  opt.seed = 11;
  const auto trace = tuner::pattern_search(host, opt);

  std::printf("tuned MM (n=256) on the host: best %.4f s over %zu evals\n",
              trace.best_seconds(), trace.size());
  std::printf("best configuration: %s\n",
              problem->space().describe(trace.best_config()).c_str());

  // Full Orio path: emit, compile, and run the best variant and the
  // default variant as standalone C programs.
  const auto& nest = problem->phases()[0].nest;
  const auto best_t = problem->transforms(trace.best_config(), 1)[0];
  const auto default_t =
      problem->transforms(problem->space().default_config(), 1)[0];

  std::printf("\ngenerated C for the best variant (head):\n");
  const std::string code = orio::generate_c(nest, best_t, "mm_variant");
  std::printf("%.*s...\n", 400, code.c_str());

  try {
    orio::CompileOptions copt;
    copt.reps = 2;
    const double best_s = orio::compile_and_run_variant(nest, best_t, copt);
    const double def_s =
        orio::compile_and_run_variant(nest, default_t, copt);
    std::printf("\ncompiled with the host compiler:\n");
    std::printf("  default variant: %.4f s\n", def_s);
    std::printf("  tuned variant:   %.4f s  (%.2fx)\n", best_s,
                def_s / best_s);
  } catch (const Error& e) {
    std::printf("(compile-and-run step unavailable: %s)\n", e.what());
  }
  return 0;
}
