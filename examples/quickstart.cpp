// Quickstart: autotune one kernel on one machine through the session API.
//
// This is the smallest end-to-end use of the library:
//   1. describe the run once with apps::TuningConfig — a SPAPT problem
//      (LU decomposition, Table III) on a simulated machine (Sandybridge,
//      Table II) — and let it wire the evaluator stack,
//   2. open a tuner::TuningSession and advance it incrementally: step()
//      evaluates a window service-side, suggest()/report() hand
//      candidates out for external measurement and feed results back,
//   3. inspect the best configuration found.
//
// The same builder adds fault injection, retry/timeout, telemetry, or
// parallel evaluation windows (eval_threads(0) uses every hardware
// thread; the trace stays bit-identical, the search just finishes
// sooner). A session's step/suggest/report discipline is exactly what
// `portatune_cli serve` speaks over its socket — this program is the
// in-process version of one service session.
#include <cstdio>

#include "apps/tuning_config.hpp"
#include "tuner/session.hpp"

int main() {
  using namespace portatune;

  const apps::TuningConfig cfg = apps::TuningConfig{}
                                     .problem("LU")  // 9 params, |D| ~ 1e10
                                     .machine("Sandybridge")
                                     .max_evals(100)
                                     .seed(42)
                                     .eval_threads(0);  // parallel windows
  auto sandybridge = cfg.make_stack();
  const tuner::ParamSpace& space = sandybridge->space();

  tuner::TuningSession session(*sandybridge,
                               cfg.session_options("quickstart"));

  // The external-measurement path: pull two candidates out, measure them
  // "elsewhere" (here: the same simulator), and report the results back.
  // A failed measurement is simply not reported: the candidate never
  // enters the trace.
  for (const tuner::ParamConfig& config : session.suggest(2)) {
    const tuner::EvalResult r = sandybridge->evaluate(config);
    if (r.ok) session.report(config, r.seconds);
  }

  // Then let the session evaluate the rest of the budget itself, one
  // window at a time (a checkpoint could be persisted between steps).
  while (session.remaining_budget() > 0 && !session.step(25).exhausted) {
  }
  session.close();

  const tuner::SearchTrace& trace = session.trace();
  std::printf("problem: %s on %s\n", trace.problem().c_str(),
              trace.machine().c_str());
  std::printf("evaluated %zu configurations (search space |D| = %.2e)\n",
              trace.size(), space.cardinality());
  std::printf("default run time: %.3f s\n",
              sandybridge->evaluate(space.default_config()).seconds);
  std::printf("best run time:    %.3f s  (found after %.1f s of search)\n",
              trace.best_seconds(), trace.time_to_best());
  std::printf("best configuration:\n  %s\n",
              space.describe(trace.best_config()).c_str());

  std::printf("\nbest-so-far curve (elapsed search seconds -> best):\n");
  double last = -1.0;
  for (const auto& [elapsed, best] : trace.best_curve()) {
    if (best == last) continue;  // print improvements only
    std::printf("  %8.1f s  ->  %.3f s\n", elapsed, best);
    last = best;
  }
  return 0;
}
