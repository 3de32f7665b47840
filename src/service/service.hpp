// TuningService: autotuning as a long-running service.
//
// The service multiplexes concurrent *sessions* (tuner/session.hpp) over
// shared infrastructure:
//
//   * one EvalCache — sessions tuning the same (problem, machine) reuse
//     each other's measurements (and a resumed session reuses its own);
//   * one SurrogateStore — a closing session publishes its trace keyed
//     by (problem, machine fingerprint); a new session fingerprints its
//     machine (through the cache: free when the machine is known) and,
//     when the store holds an admissibly similar machine, starts *warm*:
//     the stored surrogate is refit and the session evaluates a ranked
//     candidate pool (RS_b) instead of the cold draw stream;
//   * the process thread pool — each session's evaluator stack fans its
//     windows out exactly as the one-shot drivers do.
//
// Crash-safety mirrors the run journal discipline: every session has a
// directory under <data_dir>/sessions/<id>/ with an atomically written
// meta.json and checkpoint.csv; checkpoint() (or checkpoint_all(), which
// the server calls on SIGTERM) snapshots the live state, and resume(id)
// reconstructs the session exactly — same seed, same store surrogate,
// same replayed draw position.
//
// Threading: three kinds of lock, never held across each other except
// handle -> store (close publishes its trace):
//   * the registry lock guards the session map. open/resume take it
//     twice, briefly: to reserve the id and to insert the built session.
//     The fingerprint, fit and rank run between the two without it, so
//     find() never waits behind a build;
//   * the store lock guards the SurrogateStore's index (nearest, find,
//     put, quarantine, sizes), so a close's fsync'd put never holds the
//     registry lock;
//   * each handle's lock serializes step/suggest/report/checkpoint/close
//     on one session, so two sessions advance concurrently (sharing the
//     cache, which locks itself).
// The socket server (server.hpp) runs at most one op per session at a
// time and passes the ids with an op running to reclaim_idle().
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <atomic>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/tuning_config.hpp"
#include "service/eval_cache.hpp"
#include "service/surrogate_store.hpp"
#include "tuner/session.hpp"

namespace portatune::service {

struct TuningServiceOptions {
  /// Root of all service state: sessions/ and store/ live under it.
  std::string data_dir = "portatune_service";
  /// Canonical probe draws per machine fingerprint.
  std::size_t fingerprint_probes = 16;
  std::size_t cache_capacity = 1 << 16;
  /// Forest hyperparameters for store surrogate refits.
  ml::ForestParams forest{};
};

/// Point-in-time session summary (status command).
struct SessionInfo {
  std::string id;
  std::string problem;
  std::string machine;
  std::size_t evals = 0;
  std::size_t budget = 0;
  double best_seconds = 0.0;
  bool warm = false;
  std::string warm_source;  ///< machine the warm surrogate came from
  double idle_seconds = 0.0;  ///< since the last client op touched it
  bool closed = false;
};

class TuningService;

/// One open session, owned by the service. All methods are safe to call
/// concurrently with other sessions' methods; calls on the *same* handle
/// serialize on its internal lock.
class SessionHandle {
 public:
  SessionHandle(const SessionHandle&) = delete;
  SessionHandle& operator=(const SessionHandle&) = delete;

  const std::string& id() const noexcept { return id_; }
  const std::string& dir() const noexcept { return dir_; }
  /// Without the handle lock: the gauges read it while ops run.
  bool closed() const noexcept { return closed_; }
  bool warm() const noexcept { return warm_model_ != nullptr; }
  const std::string& warm_source() const noexcept { return warm_source_; }

  /// Evaluate up to n configurations service-side.
  tuner::SessionStepStats step(std::size_t n);
  /// Hand out candidates for external measurement.
  std::vector<tuner::ParamConfig> suggest(std::size_t n);
  /// Feed an externally measured result back.
  void report(const tuner::ParamConfig& config, double seconds);
  /// Atomically persist checkpoint.csv (and refresh meta.json). No-op
  /// once closed: close() already persisted the final state.
  void checkpoint();
  /// Close: final checkpoint, publish the trace to the surrogate store,
  /// mark meta closed. Returns the final trace. Idempotent.
  tuner::SearchTrace close();

  SessionInfo info() const;
  const tuner::ParamSpace& space() const { return cached_->space(); }
  /// Snapshot of the trace (copy: the session may advance concurrently).
  tuner::SearchTrace trace_snapshot() const;
  /// Seconds since a client op (step/suggest/report/checkpoint/close)
  /// last touched this session — the lease sweep's eviction signal.
  double idle_seconds() const;

 private:
  friend class TuningService;
  SessionHandle() = default;
  void persist_meta_locked() const;
  void persist_checkpoint_locked() const;

  std::string id_;
  std::string dir_;
  apps::TuningConfig cfg_;
  std::unique_ptr<apps::EvaluatorStack> stack_;
  std::unique_ptr<CachedEvaluator> cached_;
  std::vector<double> fingerprint_;
  ml::RegressorPtr warm_model_;  ///< owns the refit store surrogate
  std::string warm_source_;
  std::string warm_key_;         ///< store entry key the model came from
  std::optional<tuner::SearchCheckpoint> resume_snapshot_;
  std::unique_ptr<tuner::TuningSession> session_;
  TuningService* service_ = nullptr;  ///< owner; outlives the handle
  std::atomic<bool> closed_{false};
  double last_touched_ = 0.0;  ///< obs::mono_now() of the last client op
  mutable std::mutex mutex_;
};

class TuningService {
 public:
  explicit TuningService(TuningServiceOptions opt = {});
  /// Destruction checkpoints every open session (best-effort).
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Open a new session. `cfg` names the problem/machine/budget/seed;
  /// the service fingerprints the machine, consults the store, and
  /// decides cold vs warm. Throws when `id` is already open.
  SessionHandle& open(const std::string& id, const apps::TuningConfig& cfg);

  /// Reconstruct a checkpointed session from <data_dir>/sessions/<id>/.
  /// The full TuningConfig persisted at open is restored — evaluator
  /// stack, search options, seeds — so the resumed session is the opened
  /// one; only runtime members (cancel token, guard callbacks) reset.
  /// Throws when the directory is missing or the session was closed.
  SessionHandle& resume(const std::string& id);

  /// Live handle by id; nullptr when unknown.
  SessionHandle* find(const std::string& id);

  /// resume(id) that answers failure with nullptr instead of throwing —
  /// the protocol's fallback when a session op arrives for a session
  /// that is not live (daemon restarted, or the lease sweep reclaimed
  /// it) but has a resumable checkpoint on disk. Successful restores
  /// count under `service.sessions_restored` (+ an Info event).
  SessionHandle* try_restore(const std::string& id);

  /// Lease sweep: checkpoint-and-evict every open session idle longer
  /// than `max_idle_seconds` (also drop closed sessions idle that long —
  /// their state is final on disk). The session is NOT marked closed, so
  /// a later op on it transparently resumes from the lease checkpoint.
  /// A session whose checkpoint write fails stays live (counted under
  /// `service.checkpoint_failures`) — reclaiming it would lose state.
  /// Sessions in `busy` (an op is running on them elsewhere) are skipped
  /// untouched. Returns the reclaimed session ids.
  std::vector<std::string> reclaim_idle(
      double max_idle_seconds, const std::set<std::string>& busy = {});

  std::vector<SessionInfo> sessions() const;
  /// Checkpoint every open session (the server's SIGTERM path). Failures
  /// degrade to counted warnings (`service.checkpoint_failures`).
  void checkpoint_all();

  EvalCache& cache() noexcept { return cache_; }
  /// The store itself, unlocked: only while no op runs (start-up, tests).
  SurrogateStore& store() noexcept { return store_; }
  const TuningServiceOptions& options() const noexcept { return opt_; }

  /// The store's entry and quarantine counts, read under its lock.
  struct StoreCounts {
    std::size_t entries = 0;
    std::size_t quarantined = 0;
  };
  StoreCounts store_counts() const;

  /// Thread-safe store publication under the store lock. Closing
  /// sessions use it.
  void publish_trace(const std::string& problem, const std::string& machine,
                     const tuner::SearchTrace& trace,
                     const tuner::ParamSpace& space,
                     std::vector<double> fingerprint);

  /// Refresh the service-level gauges (active sessions, store entries,
  /// cache counters) in the process metrics registry.
  void publish_metrics();

 private:
  std::unique_ptr<SessionHandle> build_session(
      const std::string& id, const apps::TuningConfig& cfg, bool resuming);
  /// Reserve `id` (throwing `taken` when it is live or being built), run
  /// `build` without the registry lock, insert what it returns. A
  /// reserved id is invisible to find() and to the sweeps.
  SessionHandle& build_reserved(
      const std::string& id, const std::string& taken,
      const std::function<std::unique_ptr<SessionHandle>()>& build);

  TuningServiceOptions opt_;
  EvalCache cache_;
  SurrogateStore store_;
  mutable std::mutex store_mutex_;  ///< guards store_'s index
  mutable std::mutex mutex_;        ///< guards sessions_ and building_
  std::map<std::string, std::unique_ptr<SessionHandle>> sessions_;
  std::set<std::string> building_;  ///< ids reserved by open/resume
};

}  // namespace portatune::service
