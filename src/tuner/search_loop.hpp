// The one evaluation-window loop every draw-order search runs on.
//
// The paper's searches differ only in which configuration comes next:
// RS walks a seeded without-replacement stream, RS_p (Algorithm 1) the
// same stream behind a surrogate filter, RS_b (Algorithm 2) a
// surrogate-ranked candidate pool, and RS_pf / RS_bf the source trace in
// a fixed order. A DrawSource supplies that next configuration;
// SearchLoop owns every rule that must never drift between them:
//
//   * windows of `width` draws per evaluate_batch() call, each under a
//     "search.window" span;
//   * accounting strictly in draw order into the trace and the failure
//     budget, whatever order a window completed in — this is what keeps
//     parallel traces bit-identical to serial ones;
//   * cancellation at window boundaries and on short result vectors;
//   * the consumed-draws watermark and the checkpoint callback.
//
// Internal to the tuner: random_search, the model-free controls,
// adaptive_biased_search and TuningSession are thin configurations of
// this loop, and rank_pool() is the single sample -> predict -> argsort
// routine behind every surrogate-ranked pool.
#pragma once

#include <functional>
#include <vector>

#include "ml/model.hpp"
#include "support/cancellation.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/guard.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"
#include "tuner/sampler.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// One configuration a DrawSource hands the loop.
struct Draw {
  ParamConfig config;
  std::size_t index = 0;      ///< recorded as the trace entry's draw_index
  std::size_t watermark = 0;  ///< draws consumed once this one is accounted
  double predicted = 0.0;     ///< surrogate prediction, for trust monitoring
};

/// Where a search's configurations come from.
class DrawSource {
 public:
  DrawSource() = default;
  DrawSource(const DrawSource&) = delete;
  DrawSource& operator=(const DrawSource&) = delete;
  virtual ~DrawSource() = default;
  /// Produce the next draw; false once the source has run dry.
  virtual bool next(Draw& out) = 0;
  /// Fast-forward past `draws` draws: replaying them reproduces the
  /// source's state exactly (resume from a checkpoint watermark).
  void skip(std::size_t draws) {
    Draw d;
    for (std::size_t i = 0; i < draws && next(d); ++i) {
    }
  }
};

/// The seeded without-replacement stream: RS, cold sessions and RS_p's
/// fallback. Draw i records stream position i.
class StreamSource final : public DrawSource {
 public:
  StreamSource(const ParamSpace& space, std::uint64_t seed)
      : stream_(space, seed) {}
  bool next(Draw& out) override {
    auto config = stream_.next();
    if (!config) return false;
    out = {std::move(*config), stream_.produced() - 1, stream_.produced()};
    return true;
  }

 private:
  ConfigStream stream_;
};

/// Any `bool(Draw&)` callable as a source: RS_p's surrogate-filtered
/// stream (its counters and guard live in the search function) and the
/// explicit orders of the replay, RS_pf and RS_bf.
template <typename F>
class FnSource final : public DrawSource {
 public:
  explicit FnSource(F fn) : fn_(std::move(fn)) {}
  bool next(Draw& out) override { return fn_(out); }

 private:
  F fn_;
};

/// A candidate pool in draw order plus its surrogate ranking.
struct RankedPool {
  std::vector<ParamConfig> configs;  ///< ConfigStream draw order
  std::vector<double> predicted;     ///< for configs[i]; empty: unranked
  std::vector<std::size_t> order;    ///< pool indices, ascending prediction
};

/// Draw up to `size` configurations from ConfigStream(space, seed) and
/// rank them by `model`'s prediction, ascending (nullptr: draw order, no
/// predictions). Pools of 256 or more encode and predict row i inside a
/// global-pool parallel_for; prediction i depends only on configs[i], so
/// the ranking is identical at any thread count. Throws on an empty pool.
RankedPool rank_pool(const ml::Regressor* model, const ParamSpace& space,
                     std::uint64_t seed, std::size_t size);

/// A ranked pool walked best-first (RS_b, warm sessions, the adaptive
/// search). Each configuration is handed out at most once, even across
/// re-rankings. Draw i records the pool index and its prediction (0 when
/// the pool holds none); its watermark is the ranking position reached.
class PoolSource final : public DrawSource {
 public:
  /// `space` must outlive the source.
  PoolSource(RankedPool pool, const ParamSpace& space);
  /// Re-rank with `model` (nullptr: draw order, predictions kept) and
  /// restart from the best configuration not yet handed out.
  void rerank(const ml::Regressor* model);
  bool next(Draw& out) override;

 private:
  RankedPool pool_;
  const ParamSpace& space_;
  std::vector<bool> used_;
  std::size_t cursor_ = 0;
};

/// Window width for `eval`: its preferred batch, or guard.sync_window
/// while the guard is enabled — guarded decisions depend on observed
/// results, so their interleaving with draws must not vary with the
/// thread count.
std::size_t window_width(const Evaluator& eval,
                         const GuardOptions& guard = {});

class SearchLoop {
 public:
  /// `eval` and `trace` must outlive the loop.
  SearchLoop(Evaluator& eval, SearchTrace& trace, const FailureBudget& budget,
             CancellationToken cancel, std::size_t width);

  /// Evaluate draws from `source` one window at a time until the trace
  /// holds `max_evals` entries (returns true), or the source runs dry,
  /// the failure budget aborts, or cancellation stops the run (false; the
  /// latter two record a stop reason on the trace). Failed evaluations do
  /// not count toward max_evals. Callable again to continue (sessions).
  bool run(DrawSource& source, std::size_t max_evals);

  /// Continue from a snapshot: restore the trace (clearing a cancellation
  /// marker — interrupted is not finished), the failure budget, the
  /// quarantine and the watermark, and fast-forward `source` past the
  /// consumed draws. The source must be seeded as the snapshot's was.
  void resume(const SearchCheckpoint& snapshot, DrawSource& source);
  /// The trace, the watermark, and the quarantine of a ResilientEvaluator
  /// anywhere in the evaluator stack.
  SearchCheckpoint checkpoint() const;

  FailureBudgetTracker budget;
  std::size_t width;
  /// Watermark of the last accounted draw. This — not how far a source
  /// has drawn — is what checkpoints store: a window cancelled or aborted
  /// mid-way has drawn ahead of what was accounted, and those tail draws
  /// never happened as far as a resumed run is concerned.
  std::size_t consumed = 0;
  /// Fed every recorded (prediction, run time) pair (guarded RS_p / RS_b).
  TrustMonitor* monitor = nullptr;
  /// Called after every window whose results were all accounted.
  std::function<void()> after_window;
  /// Called with checkpoint() after every `checkpoint_every` recorded
  /// evaluations (0 disables).
  std::size_t checkpoint_every = 0;
  std::function<void(const SearchCheckpoint&)> on_checkpoint;

 private:
  Evaluator& eval_;
  SearchTrace& trace_;
  CancellationToken cancel_;
};

}  // namespace portatune::tuner
