#include "tuner/random_search.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "tuner/guard.hpp"
#include "tuner/observe.hpp"
#include "tuner/sampler.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {

namespace {

/// Evaluate an explicit order under `label` (replay, RS_pf, RS_bf); each
/// draw records its own index.
SearchTrace evaluate_in_order(Evaluator& eval, std::string label,
                              std::vector<Draw> order, std::size_t max_evals,
                              const FailureBudget& budget,
                              CancellationToken cancel) {
  SearchTrace trace(std::move(label), eval.problem_name(),
                    eval.machine_name());
  SearchSpanGuard span(trace);
  std::size_t next = 0;
  FnSource source([&](Draw& out) {
    if (next >= order.size()) return false;
    out = std::move(order[next++]);
    out.watermark = next;
    return true;
  });
  SearchLoop(eval, trace, budget, std::move(cancel), window_width(eval))
      .run(source, max_evals);
  return trace;
}

}  // namespace

SearchTrace random_search(Evaluator& eval, const RandomSearchOptions& opt) {
  SearchTrace trace("RS", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  StreamSource source(eval.space(), opt.seed);
  SearchLoop loop(eval, trace, opt.failure_budget, opt.cancel,
                  window_width(eval));
  if (opt.resume != nullptr) loop.resume(*opt.resume, source);
  loop.checkpoint_every = opt.checkpoint_every;
  loop.on_checkpoint = opt.on_checkpoint;
  loop.run(source, opt.max_evals);
  // Final snapshot so interrupted-and-finished runs alike can be extended
  // later (e.g. resumed with a larger eval budget).
  if (opt.on_checkpoint) opt.on_checkpoint(loop.checkpoint());
  return trace;
}

SearchTrace replay_search(Evaluator& eval,
                          std::span<const ParamConfig> order,
                          std::size_t max_evals,
                          std::string algorithm_label,
                          const FailureBudget& fb,
                          CancellationToken cancel) {
  std::vector<Draw> draws;
  draws.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) draws.push_back({order[i], i});
  return evaluate_in_order(eval, std::move(algorithm_label), std::move(draws),
                           max_evals, fb, std::move(cancel));
}

SearchTrace pruned_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const PrunedSearchOptions& opt) {
  PT_REQUIRE(model.is_fitted(), "RS_p requires a fitted surrogate");
  PT_REQUIRE(opt.delta_percent > 0.0 && opt.delta_percent < 100.0,
             "delta must lie strictly between 0 and 100");
  SearchTrace trace("RS_p", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();

  // Phase 1: estimate the pruning cutoff Delta as the delta-quantile of
  // model predictions over a fresh pool of N configurations. With the
  // guard enabled a second, relaxed cutoff is precomputed at the midpoint
  // between delta and 100% — the Degraded state prunes against that
  // instead, keeping roughly half the draws the strict cutoff would have
  // discarded.
  double cutoff = 0.0;
  double relaxed_cutoff = 0.0;
  {
    obs::ScopedTimer phase("search.RS_p.cutoff", "search",
                           {{"pool_size", opt.pool_size},
                            {"delta_percent", opt.delta_percent}});
    const RankedPool pool =
        rank_pool(&model, space, opt.seed ^ 0xb1a5ed0full, opt.pool_size);
    cutoff = quantile(pool.predicted, opt.delta_percent / 100.0);
    phase.add_field({"cutoff_seconds", cutoff});
    if (opt.guard.enabled) {
      const double relaxed_percent =
          opt.delta_percent + (100.0 - opt.delta_percent) / 2.0;
      relaxed_cutoff = quantile(pool.predicted, relaxed_percent / 100.0);
      phase.add_field({"relaxed_cutoff_seconds", relaxed_cutoff});
    }
  }

  // Phase 2: walk the shared stream (same order RS sees), evaluating only
  // configurations the surrogate predicts below the cutoff. The guard,
  // when enabled, owns the effective cutoff: strict while Trusted,
  // relaxed while Degraded, and no pruning at all once Disabled — from
  // that point the scan degenerates to plain RS over the same stream.
  obs::ScopedTimer scan_phase("search.RS_p.scan", "search");
  std::optional<TrustMonitor> monitor;
  if (opt.guard.enabled) monitor.emplace(opt.guard, "RS_p");
  ConfigStream stream(space, opt.seed);
  std::size_t draws = 0;
  std::size_t pruned = 0;
  // The stream runs dry after max_draws draws, pruned ones included.
  FnSource source([&](Draw& out) {
    while (draws < opt.max_draws) {
      auto config = stream.next();
      if (!config) return false;
      ++draws;
      const double predicted = model.predict(space.features(*config));
      const GuardState state =
          monitor ? monitor->state() : GuardState::Trusted;
      if (state != GuardState::Disabled &&
          predicted >=
              (state == GuardState::Degraded ? relaxed_cutoff : cutoff)) {
        ++pruned;
        // note_prune transitions to Disabled when the starvation cap
        // trips, which lets every later draw through.
        if (monitor) monitor->note_prune(trace.size());
        continue;
      }
      if (monitor) monitor->note_pass();
      out = {std::move(*config), stream.produced() - 1, stream.produced(),
             predicted};
      return true;
    }
    return false;
  });
  SearchLoop loop(eval, trace, opt.failure_budget, opt.cancel,
                  window_width(eval, opt.guard));
  if (monitor) loop.monitor = &*monitor;
  loop.run(source, opt.max_evals);

  scan_phase.add_field({"draws", draws});
  scan_phase.add_field({"pruned", pruned});
  if (monitor) {
    scan_phase.add_field({"guard_state", to_string(monitor->state())});
    scan_phase.add_field({"guard_trust", monitor->trust()});
  }
  if (draws > 0) {
    auto& metrics = obs::MetricsRegistry::current();
    metrics.counter("search.draws").add(draws);
    metrics.counter("search.pruned_draws").add(pruned);
    metrics.gauge("search.prune_rate")
        .set(static_cast<double>(pruned) / static_cast<double>(draws));
  }

  // Fallback guarantee: if the cutoff pruned everything (e.g. a degenerate
  // model), evaluate the first draws unconditionally so the search always
  // returns a configuration — unless it aborted or was cancelled.
  if (trace.empty() && trace.stop_reason().empty()) {
    StreamSource fallback(space, opt.seed);
    loop.monitor = nullptr;
    loop.width = window_width(eval);
    loop.run(fallback, std::min<std::size_t>(opt.max_evals, 10));
  }
  return trace;
}

SearchTrace biased_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const BiasedSearchOptions& opt) {
  PT_REQUIRE(model.is_fitted(), "RS_b requires a fitted surrogate");
  SearchTrace trace("RS_b", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();

  // Phase 1: sample the candidate pool X_p and rank it by ascending
  // predicted run time.
  RankedPool pool;
  {
    obs::ScopedTimer rank_phase("search.RS_b.rank", "search",
                                {{"pool_size", opt.pool_size}});
    pool = rank_pool(&model, space, opt.seed, opt.pool_size);
    rank_phase.add_field({"pool", pool.configs.size()});
  }
  PoolSource source(std::move(pool), space);

  // Phase 2: evaluate in ascending predicted-run-time order (equivalent to
  // repeatedly taking argmin over the remaining pool, Algorithm 2 line 7).
  // With the guard enabled the order is no longer immutable: when trust
  // degrades and enough target observations have accumulated, a hybrid
  // forest (source rows + weighted target rows) is refitted once and the
  // remaining pool re-ranked; when trust collapses or the refit fails
  // too, the remainder falls back to draw order — plain RS over X_p.
  std::optional<TrustMonitor> monitor;
  if (opt.guard.enabled) monitor.emplace(opt.guard, "RS_b");
  SearchLoop loop(eval, trace, opt.failure_budget, opt.cancel,
                  window_width(eval, opt.guard));
  bool draw_order_fallback = false;
  if (monitor) {
    loop.monitor = &*monitor;
    // Guard reactions happen at window granularity, after the window's
    // results are accounted in draw order — the same points in the
    // decision sequence at every thread count.
    loop.after_window = [&] {
      if (draw_order_fallback) return;
      if (monitor->state() == GuardState::Disabled) {
        source.rerank(nullptr);
        draw_order_fallback = true;
      } else if (monitor->state() == GuardState::Degraded &&
                 opt.guard.refit_after > 0 && !monitor->refit_spent() &&
                 trace.size() >= opt.guard.refit_after) {
        const ml::RegressorPtr refit = fit_hybrid_surrogate(
            opt.guard.refit_source, trace, space,
            opt.guard.refit_target_weight, opt.guard.refit_forest);
        source.rerank(refit.get());
        monitor->note_refit(trace.size());
      }
    };
  }
  loop.run(source, opt.max_evals);
  return trace;
}

SearchTrace model_free_pruned(Evaluator& eval, const SearchTrace& source,
                              double delta_percent, std::size_t max_evals,
                              const FailureBudget& fb,
                              CancellationToken cancel) {
  PT_REQUIRE(!source.empty(), "RS_pf requires source data");
  std::vector<double> ys;
  ys.reserve(source.size());
  for (const auto& e : source.entries()) ys.push_back(e.seconds);
  const double cutoff = quantile(ys, delta_percent / 100.0);
  // Pruned by the source run time; survivors keep source order.
  std::vector<Draw> order;
  for (const auto& e : source.entries())
    if (e.seconds < cutoff) order.push_back({e.config, e.draw_index});
  return evaluate_in_order(eval, "RS_pf", std::move(order), max_evals, fb,
                           std::move(cancel));
}

SearchTrace model_free_biased(Evaluator& eval, const SearchTrace& source,
                              std::size_t max_evals,
                              const FailureBudget& fb,
                              CancellationToken cancel) {
  PT_REQUIRE(!source.empty(), "RS_bf requires source data");
  std::vector<double> ys;
  ys.reserve(source.size());
  for (const auto& e : source.entries()) ys.push_back(e.seconds);
  std::vector<Draw> order;
  order.reserve(source.size());
  for (const std::size_t i : argsort(ys))
    order.push_back({source.entry(i).config, source.entry(i).draw_index});
  return evaluate_in_order(eval, "RS_bf", std::move(order), max_evals, fb,
                           std::move(cancel));
}

}  // namespace portatune::tuner
