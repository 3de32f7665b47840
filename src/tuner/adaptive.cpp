#include "tuner/adaptive.hpp"

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "tuner/observe.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {

SearchTrace adaptive_biased_search(Evaluator& target,
                                   const SearchTrace& source,
                                   const SearchOptions& opt) {
  PT_REQUIRE(opt.refit_interval > 0, "refit interval must be positive");
  PT_REQUIRE(opt.target_weight > 0, "target weight must be positive");
  SearchTrace trace("RS_b_adaptive", target.problem_name(),
                    target.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = target.space();

  // Candidate pool, sampled once (same role as X_p in Algorithm 2).
  PoolSource pool(rank_pool(nullptr, space, opt.seed, opt.pool_size), space);

  ml::ForestParams fp = opt.forest;
  fp.seed = opt.seed;
  ml::RandomForest model(fp);
  std::size_t refits = 0;
  const auto rerank = [&] {
    const auto data =
        hybrid_dataset(&source, trace, space, opt.target_weight);
    if (data.empty()) {
      // Nothing to learn from yet: keep pool order (uniform random).
      pool.rerank(nullptr);
      return;
    }
    obs::ScopedTimer refit_span("search.refit", "search",
                                {{"refit", refits},
                                 {"training_rows", data.num_rows()},
                                 {"target_evals", trace.size()}});
    ++refits;
    obs::MetricsRegistry::current().counter("search.refits").add();
    model.fit(data);
    pool.rerank(&model);
  };
  rerank();

  // Refits depend on every observed result, so windows hold one draw.
  SearchLoop loop(target, trace, opt.failure_budget, opt.cancel, 1);
  std::size_t next_refit = opt.refit_interval;
  loop.after_window = [&] {
    if (trace.size() < next_refit || trace.size() >= opt.max_evals) return;
    next_refit = trace.size() + opt.refit_interval;
    rerank();
  };
  loop.run(pool, opt.max_evals);
  return trace;
}

}  // namespace portatune::tuner
