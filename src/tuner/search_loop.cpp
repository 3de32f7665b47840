#include "tuner/search_loop.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace portatune::tuner {

namespace {

/// Rank `pool` by `model`, ascending; nullptr restores draw order and
/// keeps the current predictions. predict() is a pure const read of the
/// fitted model, so fanning it out over the shared pool is deterministic.
/// Small pools stay serial — dispatch would cost more than it saves.
void rank(RankedPool& pool, const ml::Regressor* model,
          const ParamSpace& space) {
  if (model == nullptr) {
    pool.order.resize(pool.configs.size());
    std::iota(pool.order.begin(), pool.order.end(), std::size_t{0});
    return;
  }
  pool.predicted.resize(pool.configs.size());
  const auto body = [&](std::size_t i) {
    pool.predicted[i] = model->predict(space.features(pool.configs[i]));
  };
  constexpr std::size_t kParallelThreshold = 256;
  if (pool.configs.size() >= kParallelThreshold)
    ThreadPool::global().parallel_for(0, pool.configs.size(), body);
  else
    for (std::size_t i = 0; i < pool.configs.size(); ++i) body(i);
  pool.order = argsort(pool.predicted);
}

}  // namespace

RankedPool rank_pool(const ml::Regressor* model, const ParamSpace& space,
                     std::uint64_t seed, std::size_t size) {
  RankedPool pool;
  ConfigStream stream(space, seed);
  pool.configs.reserve(size);
  while (pool.configs.size() < size) {
    auto c = stream.next();
    if (!c) break;
    pool.configs.push_back(std::move(*c));
  }
  PT_REQUIRE(!pool.configs.empty(), "empty candidate pool");
  rank(pool, model, space);
  return pool;
}

PoolSource::PoolSource(RankedPool pool, const ParamSpace& space)
    : pool_(std::move(pool)),
      space_(space),
      used_(pool_.configs.size(), false) {}

void PoolSource::rerank(const ml::Regressor* model) {
  rank(pool_, model, space_);
  cursor_ = 0;
}

bool PoolSource::next(Draw& out) {
  while (cursor_ < pool_.order.size()) {
    const std::size_t pick = pool_.order[cursor_++];
    if (used_[pick]) continue;  // handed out before a re-ranking
    used_[pick] = true;
    out = {pool_.configs[pick], pick, cursor_,
           pool_.predicted.empty() ? 0.0 : pool_.predicted[pick]};
    return true;
  }
  return false;
}

std::size_t window_width(const Evaluator& eval, const GuardOptions& guard) {
  return std::max<std::size_t>(1, guard.enabled
                                      ? guard.sync_window
                                      : eval.capabilities().preferred_batch);
}

SearchLoop::SearchLoop(Evaluator& eval, SearchTrace& trace,
                       const FailureBudget& budget, CancellationToken cancel,
                       std::size_t width)
    : budget(budget),
      width(width),
      eval_(eval),
      trace_(trace),
      cancel_(std::move(cancel)) {}

bool SearchLoop::run(DrawSource& source, std::size_t max_evals) {
  std::size_t since_checkpoint = 0;
  bool dry = false;
  while (trace_.size() < max_evals && !dry) {
    // A resumed run whose budget was already spent evaluates nothing; the
    // restored trace keeps its checkpointed stop reason.
    if (budget.exhausted()) return false;
    // Graceful shutdown: stop at the window boundary, with `consumed` at
    // the last accounted draw, so the run stays resumable.
    if (cancel_.cancelled()) {
      trace_.set_stop_reason(kCancelledStopReason);
      return false;
    }
    // Windows never overshoot: failed evaluations do not count toward
    // max_evals, so the remaining budget is re-measured every window and
    // a short window is drawn near the end.
    const std::size_t want = std::min(width, max_evals - trace_.size());
    std::vector<ParamConfig> configs;
    std::vector<Draw> draws;
    configs.reserve(want);
    draws.reserve(want);
    Draw d;
    while (configs.size() < want) {
      if (!source.next(d)) {
        dry = true;
        break;
      }
      configs.push_back(std::move(d.config));
      draws.push_back(std::move(d));
    }
    if (configs.empty()) break;

    // The window span is the causal parent of every evaluation it fans
    // out, across worker threads (the ThreadPool carries the SpanContext
    // into each task); `evals_done` lines windows up with search
    // progress. Dormant path: one enabled() check, no allocation.
    std::optional<obs::ScopedTimer> span;
    if (obs::enabled(obs::Severity::Debug))
      span.emplace("search.window", "search",
                   std::vector<obs::Field>{{"window", configs.size()},
                                           {"evals_done", trace_.size()}},
                   nullptr, obs::Severity::Debug);
    const std::vector<EvalResult> results = eval_.evaluate_batch(configs);
    span.reset();
    // Strictly draw order, regardless of completion order inside the
    // batch — this is what keeps parallel traces bit-identical to serial.
    for (std::size_t i = 0; i < results.size(); ++i) {
      consumed = draws[i].watermark;
      const EvalResult& r = results[i];
      trace_.note_result(r);
      if (budget.note(r)) {
        // A serial search would have stopped drawing here; results after
        // the aborting draw are discarded unseen.
        trace_.set_stop_reason(budget.reason());
        return false;
      }
      if (!r.ok) continue;
      trace_.record(std::move(configs[i]), r.seconds, draws[i].index);
      if (monitor != nullptr)
        monitor->observe(draws[i].predicted, r.seconds, trace_.size());
      if (checkpoint_every != 0 && on_checkpoint &&
          ++since_checkpoint >= checkpoint_every) {
        since_checkpoint = 0;
        on_checkpoint(checkpoint());
      }
    }
    // A short result vector means the window was cancelled mid-flight:
    // the accounted prefix is consistent (`consumed` points at the first
    // unprocessed draw), the tail never happened.
    if (results.size() < configs.size()) {
      trace_.set_stop_reason(kCancelledStopReason);
      return false;
    }
    if (after_window) after_window();
  }
  return !dry;
}

void SearchLoop::resume(const SearchCheckpoint& snapshot,
                        DrawSource& source) {
  trace_ = snapshot.trace;
  if (trace_.stop_reason() == kCancelledStopReason)
    trace_.restore_stop_reason("");
  budget.restore_total(snapshot.trace.failure_stats().failures);
  if (auto* resilient = find_layer<ResilientEvaluator>(&eval_))
    resilient->restore_quarantine(snapshot.quarantine);
  source.skip(snapshot.draws);
  consumed = snapshot.draws;
}

SearchCheckpoint SearchLoop::checkpoint() const {
  SearchCheckpoint snapshot;
  snapshot.trace = trace_;
  snapshot.draws = consumed;
  if (auto* resilient = find_layer<ResilientEvaluator>(&eval_))
    snapshot.quarantine = resilient->quarantined_hashes();
  return snapshot;
}

}  // namespace portatune::tuner
