// Tuning sessions: the stateful core of the autotuning-as-a-service API.
//
// A *session* is one long-lived tuning conversation with an evaluator:
// instead of a free function that runs a whole search and returns, the
// caller opens a session, advances it incrementally (step), or pulls
// candidates out and pushes externally measured results back in
// (suggest / report), snapshots it for crash-safety (checkpoint), and
// finally closes it. The service layer (src/service) multiplexes many of
// these concurrently over shared infrastructure — the evaluation cache,
// the surrogate store, the thread pool — but the session state machine
// itself is plain tuner code with no service dependencies, so embedders
// can drive one directly.
//
// A TuningSession is single-machine incremental search. Cold sessions
// walk the seeded without-replacement draw stream exactly like RS; warm
// sessions rank a candidate pool with a surrogate handed in at open (the
// store's nearest-machine forest) and evaluate in ascending predicted
// order, exactly like RS_b. Both are configurations of the search loop
// (tuner/search_loop.hpp) the free-function searches run on: step() runs
// that loop for a bounded number of evaluations, suggest() pulls draws
// from the same source without evaluating them.
//
// Lifecycle observability: every session emits a `session.open` instant
// at construction and a `session.closed` span (duration = session
// lifetime) at close, so the flight recorder's ring always holds the
// recent session history and a Chrome trace shows sessions as slices.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/model.hpp"
#include "tuner/random_search.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

struct SessionOptions : SearchCommon {
  /// Session label used in events and diagnostics.
  std::string id = "session";
  /// Warm start: rank `pool_size` candidates with this model and
  /// evaluate in ascending predicted order (RS_b, Algorithm 2). The
  /// model must outlive the session. nullptr = cold: plain RS draw
  /// order.
  const ml::Regressor* warm_model = nullptr;
  /// Candidate pool for the warm ranking (ignored when cold).
  std::size_t pool_size = 2000;
  /// Resume an interrupted session from its checkpoint. The same seed —
  /// and, for warm sessions, a model refit from the same stored trace —
  /// must be supplied, so the replayed draw/rank order matches exactly.
  const SearchCheckpoint* resume = nullptr;
};

/// What one step() advanced.
struct SessionStepStats {
  std::size_t evaluated = 0;   ///< new trace entries
  std::size_t failures = 0;    ///< failed evaluations this step
  double best_seconds = 0.0;   ///< session-wide best after the step
  /// True once the session can make no further progress: budget
  /// reached, stream/pool exhausted, failure budget tripped, or
  /// cancelled.
  bool exhausted = false;
};

class TuningSession {
 public:
  /// The evaluator must outlive the session.
  TuningSession(Evaluator& eval, SessionOptions opt);
  ~TuningSession();

  TuningSession(const TuningSession&) = delete;
  TuningSession& operator=(const TuningSession&) = delete;

  const std::string& id() const noexcept { return opt_.id; }
  bool warm() const noexcept { return opt_.warm_model != nullptr; }
  bool closed() const noexcept { return closed_; }

  /// Evaluate up to `n` further configurations through the session's
  /// evaluator, in windows of its preferred batch (the evaluator fans
  /// each out if it can). Throws after close().
  SessionStepStats step(std::size_t n);

  /// Consume and return up to `n` candidate configurations without
  /// evaluating them. The caller measures them externally and feeds the
  /// results back with report(); unreported suggestions simply never
  /// enter the trace (and never consume evaluation budget).
  std::vector<ParamConfig> suggest(std::size_t n);

  /// Record one externally measured run time for a configuration handed
  /// out by suggest(). Throws when the run time is not finite and
  /// positive, or the configuration was not suggested by this session
  /// (outstanding suggestions are part of the checkpoint, so they survive
  /// a resume).
  void report(const ParamConfig& config, double seconds);

  /// Snapshot for persistence: the trace, the number of draws / pool
  /// picks consumed, and the outstanding suggestions — exactly what
  /// SessionOptions::resume replays.
  SearchCheckpoint checkpoint() const;

  /// Close the session: emits the lifetime span, after which
  /// step/suggest/report throw. Idempotent. trace() stays readable.
  void close();

  const SearchTrace& trace() const noexcept { return trace_; }
  std::size_t remaining_budget() const noexcept {
    return trace_.size() >= opt_.max_evals ? 0
                                           : opt_.max_evals - trace_.size();
  }

 private:
  void require_open(const char* op) const;

  Evaluator& eval_;
  SessionOptions opt_;
  SearchTrace trace_;
  /// Failure budget, window width and consumed-draws watermark (draws
  /// when cold, ranked-pool picks when warm).
  SearchLoop loop_;
  /// Cold: the seeded stream. Warm: the ranked pool.
  std::unique_ptr<DrawSource> source_;
  double opened_mono_ = 0.0;
  bool closed_ = false;
  bool exhausted_ = false;

  /// Outstanding suggestions: config hash -> draw index, so report()
  /// stamps the entry with the same index step() would have.
  std::vector<std::pair<std::uint64_t, std::size_t>> pending_;
};

}  // namespace portatune::tuner
