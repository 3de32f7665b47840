#include "tuner/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "obs/scoped_timer.hpp"
#include "support/correlation.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {

namespace {

void require_same_space(const ParamSpace& a, const ParamSpace& b) {
  PT_REQUIRE(a.num_params() == b.num_params(),
             "source/target parameter spaces differ in arity");
  for (std::size_t i = 0; i < a.num_params(); ++i) {
    PT_REQUIRE(a.param(i).name == b.param(i).name &&
                   a.param(i).values == b.param(i).values,
               "source/target parameter spaces differ at parameter " +
                   a.param(i).name);
  }
}

}  // namespace

TransferExperimentResult run_transfer_experiment(
    Evaluator& source, Evaluator& target,
    const ExperimentSettings& settings) {
  require_same_space(source.space(), target.space());

  TransferExperimentResult out;
  obs::ScopedTimer experiment_span(
      "experiment.transfer", "experiment",
      {{"problem", source.problem_name()},
       {"source", source.machine_name()},
       {"target", target.machine_name()},
       {"nmax", settings.max_evals}});
  const auto phase = [&](const char* name) {
    return obs::ScopedTimer(std::string("phase.") + name, "experiment");
  };

  // Run one named search phase: try the restore hook first, then check
  // for cancellation, then run. A phase whose trace carries the
  // cancellation stop reason (or that never started) flips `interrupted`,
  // which short-circuits every later phase — the caller gets back exactly
  // the completed prefix of the protocol plus the partial phase's trace.
  const auto run_phase = [&](const char* name, SearchTrace& slot,
                             auto&& body) {
    if (out.interrupted) return;
    if (settings.hooks.restore_phase) {
      if (std::optional<SearchTrace> restored =
              settings.hooks.restore_phase(name)) {
        slot = std::move(*restored);
        return;
      }
    }
    if (settings.cancel.cancelled()) {
      out.interrupted = true;
      return;
    }
    {
      auto span = phase(name);
      slot = body();
    }
    if (slot.stop_reason() == kCancelledStopReason) {
      out.interrupted = true;
      return;
    }
    if (settings.hooks.phase_done) settings.hooks.phase_done(name, slot);
  };

  // 1. RS on the source machine -> T_a. This is the long phase, so it
  // alone reads the checkpoint and resume settings.
  run_phase("source_rs", out.source_rs,
            [&] { return random_search(source, settings); });
  if (out.interrupted) return out;
  PT_REQUIRE(!out.source_rs.empty(), "source RS produced no evaluations");

  // 2. RS on the target machine, replaying the source order (CRN).
  run_phase("target_rs", out.target_rs, [&] {
    std::vector<ParamConfig> order;
    order.reserve(out.source_rs.size());
    for (const auto& e : out.source_rs.entries()) order.push_back(e.config);
    return replay_search(target, order, settings);
  });
  if (out.interrupted) return out;

  // 3. Fit the surrogate M_a on T_a.
  ml::ForestParams fp = settings.forest;
  fp.seed = settings.seed;
  ml::RegressorPtr model;
  {
    auto span = phase("fit");
    model = fit_surrogate(out.source_rs, source.space(), fp);
  }

  // 4. Model-based variants on the target machine. When the guard is on,
  // its refits train on T_a + accumulated target rows, and every state
  // transition lands on the result's guard_log tagged with the search
  // that fired it.
  const auto guard_for = [&](const char* algo) {
    GuardOptions g = settings.guard;
    if (!g.enabled) return g;
    g.refit_source = &out.source_rs;
    g.refit_forest = settings.forest;
    g.refit_forest.seed = settings.seed;
    g.on_transition = [&out, algo](const GuardTransition& tr) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%s: %s->%s @%zu (%s, trust=%.3f)", algo,
                    to_string(tr.from), to_string(tr.to), tr.evals,
                    tr.reason.c_str(), tr.trust);
      out.guard_log.emplace_back(line);
    };
    return g;
  };

  run_phase("pruned", out.pruned, [&] {
    SearchOptions p_opt = settings;
    p_opt.guard = guard_for("RS_p");
    return pruned_random_search(target, *model, p_opt);
  });

  run_phase("biased", out.biased, [&] {
    SearchOptions b_opt = settings;
    b_opt.guard = guard_for("RS_b");
    return biased_random_search(target, *model, b_opt);
  });

  // 5. Model-free controls, restricted to T_a's configurations: no
  // evaluation budget beyond T_a itself.
  SearchOptions mf_opt = settings;
  mf_opt.max_evals = SIZE_MAX;
  run_phase("pruned_mf", out.pruned_mf, [&] {
    return model_free_pruned(target, out.source_rs, mf_opt);
  });
  run_phase("biased_mf", out.biased_mf, [&] {
    return model_free_biased(target, out.source_rs, mf_opt);
  });
  if (out.interrupted) return out;

  // 6-8. Derived metrics, computed only for complete runs.
  auto metrics_span = phase("metrics");
  finalize_transfer_result(out);
  return out;
}

void finalize_transfer_result(TransferExperimentResult& out) {
  // 6. Metrics.
  out.pruned_speedup = compare_to_rs(out.target_rs, out.pruned);
  out.biased_speedup = compare_to_rs(out.target_rs, out.biased);
  out.pruned_mf_speedup = compare_to_rs(out.target_rs, out.pruned_mf);
  out.biased_mf_speedup = compare_to_rs(out.target_rs, out.biased_mf);

  // Correlations over the shared configurations. The replay may have
  // skipped failed evaluations, so join on the draw index.
  std::vector<double> ya, yb;
  std::size_t ti = 0;
  for (std::size_t si = 0; si < out.source_rs.size(); ++si) {
    while (ti < out.target_rs.size() &&
           out.target_rs.entry(ti).draw_index < si)
      ++ti;
    if (ti >= out.target_rs.size()) break;
    if (out.target_rs.entry(ti).draw_index == si) {
      ya.push_back(out.source_rs.entry(si).seconds);
      yb.push_back(out.target_rs.entry(ti).seconds);
    }
  }
  if (ya.size() >= 2) {
    out.pearson = pearson(ya, yb);
    out.spearman = spearman(ya, yb);
    out.top_overlap = top_set_overlap(ya, yb, 0.2);
  }

  // 7. Failure accounting over all six traces (idempotent: reset first so
  // re-finalizing a restored cell does not double-count).
  out.failures = FailureStats{};
  out.aborted_searches.clear();
  for (const SearchTrace* t :
       {&out.source_rs, &out.target_rs, &out.pruned, &out.biased,
        &out.pruned_mf, &out.biased_mf}) {
    out.failures += t->failure_stats();
    if (!t->stop_reason().empty())
      out.aborted_searches.push_back(t->algorithm() + ": " +
                                     t->stop_reason());
  }

  // 8. Attach the observability snapshot so the report is self-contained.
  out.metrics = obs::MetricsRegistry::current().snapshot();
}

std::vector<TransferExperimentResult> run_transfer_experiments(
    std::span<const ExperimentJob> jobs, std::size_t threads) {
  std::vector<TransferExperimentResult> out(jobs.size());
  if (jobs.empty()) return out;

  const auto run_job = [&](std::size_t i) {
    const ExperimentJob& job = jobs[i];
    PT_REQUIRE(job.make_source && job.make_target,
               "experiment job '" + job.label + "' is missing a factory");
    // One causal span per cell, opened on the worker that runs it: the
    // whole experiment (its transfer span, phases, windows, evaluations)
    // nests under the cell, so a trace of a Table IV/V run attributes
    // every worker-side event to its grid cell by label.
    obs::ScopedTimer cell_span("experiment.cell", "experiment",
                               {{"label", job.label},
                                {"cell", static_cast<std::uint64_t>(i)}});
    // Built here, on the worker, so the whole evaluator stack is private
    // to this job. Results land by index: job order, never finish order.
    EvaluatorPtr source = job.make_source();
    EvaluatorPtr target = job.make_target();
    out[i] = run_transfer_experiment(*source, *target, job.settings);
  };

  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, jobs.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i);
    return out;
  }
  // A dedicated pool, not ThreadPool::global(): experiment cells are
  // long-running and would otherwise starve the fine-grained prediction
  // fan-outs the searches themselves put on the global pool.
  ThreadPool pool(threads);
  pool.parallel_for(0, jobs.size(), run_job);
  return out;
}

}  // namespace portatune::tuner
