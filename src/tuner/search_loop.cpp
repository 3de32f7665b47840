#include "tuner/search_loop.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>

#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace portatune::tuner {

PackedConfigs::PackedConfigs(const ParamSpace& space) : stride_(1) {
  unsigned used = 0;  // bits taken in the last word
  for (const ParamDef& p : space.params()) {
    const auto width =
        static_cast<unsigned>(std::bit_width(p.values.size() - 1));
    if (width == 0) {  // one value: index 0, no bits
      fields_.push_back({});
      continue;
    }
    if (width > 64 - used) {
      ++stride_;
      used = 0;
    }
    fields_.push_back({stride_ - 1, used,
                       width == 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << width) - 1});
    used += width;
  }
}

void PackedConfigs::push_back(const ParamConfig& c) {
  PT_REQUIRE(c.size() == fields_.size(), "configuration arity mismatch");
  words_.resize(words_.size() + stride_, 0);
  std::uint64_t* w = words_.data() + size_ * stride_;
  for (std::size_t p = 0; p < fields_.size(); ++p) {
    const auto v = static_cast<std::uint64_t>(c[p]);
    PT_REQUIRE(c[p] >= 0 && v <= fields_[p].mask, "value index out of range");
    w[fields_[p].word] |= v << fields_[p].shift;
  }
  ++size_;
}

void PackedConfigs::get(std::size_t i, ParamConfig& out) const {
  PT_ASSERT(i < size_);
  const std::uint64_t* w = words_.data() + i * stride_;
  out.resize(fields_.size());
  for (std::size_t p = 0; p < fields_.size(); ++p)
    out[p] = static_cast<int>(w[fields_[p].word] >> fields_[p].shift &
                              fields_[p].mask);
}

ParamConfig PackedConfigs::operator[](std::size_t i) const {
  ParamConfig out;
  get(i, out);
  return out;
}

namespace {

/// Close `span` and, when `traced` (the caller's one enabled() check),
/// open `name` in its place: the Debug-level children of the enclosing
/// rank span (search.RS_b.rank, search.RS_p.cutoff, session.rank).
void next_span(std::optional<obs::ScopedTimer>& span, bool traced,
               const char* name, std::size_t rows) {
  span.reset();
  if (traced)
    span.emplace(name, "search", std::vector<obs::Field>{{"rows", rows}},
                 nullptr, obs::Severity::Debug);
}

/// Rows rank() encodes and predicts at a time: a raytracer block (247
/// flags) is 247 KiB of features, the most a running task holds, so no
/// pool-sized matrix exists.
constexpr std::size_t kBlockRows = 128;

/// Rank `pool` by `model`, ascending; nullptr restores draw order and
/// keeps the current predictions. One parallel_for over row blocks: each
/// task encodes its block into its own buffer and predicts it through
/// predict_rows(), writing its own slice of `predicted` (a pool of one
/// block runs inline). Prediction i depends only on configs[i], so the
/// ranking is the same at any thread count.
void rank(RankedPool& pool, const ml::Regressor* model,
          const ParamSpace& space, bool traced) {
  if (model == nullptr) {
    pool.order.resize(pool.configs.size());
    std::iota(pool.order.begin(), pool.order.end(), std::size_t{0});
    return;
  }
  const std::size_t n = pool.configs.size();
  const std::size_t cols = space.num_params();
  pool.predicted.resize(n);
  std::optional<obs::ScopedTimer> span;
  next_span(span, traced, "pool.predict", n);
  ThreadPool::global().parallel_for(
      0, (n + kBlockRows - 1) / kBlockRows, [&](std::size_t b) {
        const std::size_t lo = b * kBlockRows;
        const std::size_t m = std::min(kBlockRows, n - lo);
        std::vector<double> rows(m * cols);
        ParamConfig config;
        for (std::size_t i = 0; i < m; ++i) {
          pool.configs.get(lo + i, config);
          space.encode(config, std::span(rows).subspan(i * cols, cols));
        }
        model->predict_rows(rows, cols,
                            std::span(pool.predicted).subspan(lo, m));
      });
  next_span(span, traced, "pool.argsort", n);
  pool.order = argsort(pool.predicted);
}

}  // namespace

RankedPool rank_pool(const ml::Regressor* model, const ParamSpace& space,
                     std::uint64_t seed, std::size_t size) {
  const bool traced = obs::enabled(obs::Severity::Debug);
  RankedPool pool;
  pool.configs = PackedConfigs(space);
  {
    std::optional<obs::ScopedTimer> span;
    next_span(span, traced, "pool.sample", size);
    ConfigStream stream(space, seed);
    pool.configs.reserve(size);
    while (pool.configs.size() < size) {
      auto c = stream.next();
      if (!c) break;
      pool.configs.push_back(*c);
    }
  }
  PT_REQUIRE(!pool.configs.empty(), "empty candidate pool");
  rank(pool, model, space, traced);
  return pool;
}

PoolSource::PoolSource(RankedPool pool, const ParamSpace& space)
    : pool_(std::move(pool)),
      space_(space),
      used_(pool_.configs.size(), false) {}

void PoolSource::rerank(const ml::Regressor* model) {
  rank(pool_, model, space_, obs::enabled(obs::Severity::Debug));
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
