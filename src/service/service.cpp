#include "service/service.hpp"

#include <cctype>
#include <limits>
#include <utility>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "tuner/persistence.hpp"
#include "tuner/transfer.hpp"

namespace portatune::service {

namespace {

using obs::json::Value;

std::string session_dir(const std::string& data_dir, const std::string& id) {
  return data_dir + "/sessions/" + id;
}

SurrogateStoreOptions store_options(const TuningServiceOptions& opt) {
  PT_REQUIRE(!opt.data_dir.empty(), "service needs a data directory");
  return SurrogateStoreOptions{opt.data_dir + "/store", opt.forest};
}

Value fingerprint_json(const std::vector<double>& fp) {
  std::vector<Value> items;
  items.reserve(fp.size());
  for (double v : fp) items.push_back(Value::make_number(v));
  return Value::make_array(std::move(items));
}

using Members = std::vector<std::pair<std::string, Value>>;

Value num(double v) { return Value::make_number(v); }
Value num(std::size_t v) { return Value::make_number(static_cast<double>(v)); }

/// The full builder state, so resume() reconstructs the exact evaluator
/// stack and search options the session was opened with. Runtime-only
/// members — the cancel token, the guard's on_transition callback and
/// refit_source pointer — cannot be persisted and reset to defaults.
Value config_to_json(const apps::TuningConfig& cfg) {
  const ml::ForestParams& fp = cfg.forest();
  Members forest;
  forest.emplace_back("num_trees", num(fp.num_trees));
  forest.emplace_back("max_features", num(fp.max_features));
  forest.emplace_back("max_depth", num(fp.max_depth));
  forest.emplace_back("min_samples_leaf", num(fp.min_samples_leaf));
  forest.emplace_back("min_samples_split", num(fp.min_samples_split));
  forest.emplace_back("seed", num(static_cast<double>(fp.seed)));

  const tuner::FailureBudget& fb = cfg.failure_budget();
  Members budget;
  budget.emplace_back("max_consecutive", num(fb.max_consecutive));
  budget.emplace_back("max_total", num(fb.max_total));

  const tuner::GuardOptions& g = cfg.guard();
  Members guard;
  guard.emplace_back("enabled", Value::make_bool(g.enabled));
  guard.emplace_back("window", num(g.window));
  guard.emplace_back("min_observations", num(g.min_observations));
  guard.emplace_back("floor", num(g.floor));
  guard.emplace_back("disable_floor", num(g.disable_floor));
  guard.emplace_back("max_consecutive_prunes", num(g.max_consecutive_prunes));
  guard.emplace_back("refit_after", num(g.refit_after));
  guard.emplace_back("refit_target_weight", num(g.refit_target_weight));
  guard.emplace_back("sync_window", num(g.sync_window));

  const tuner::FaultProfile& fa = cfg.faults();
  Members faults;
  faults.emplace_back("transient_rate", num(fa.transient_rate));
  faults.emplace_back("deterministic_rate", num(fa.deterministic_rate));
  faults.emplace_back("hang_rate", num(fa.hang_rate));
  faults.emplace_back("hang_stall_seconds", num(fa.hang_stall_seconds));
  faults.emplace_back("delay_rate", num(fa.delay_rate));
  faults.emplace_back("delay_seconds", num(fa.delay_seconds));
  faults.emplace_back("spike_rate", num(fa.spike_rate));
  faults.emplace_back("spike_factor", num(fa.spike_factor));
  faults.emplace_back("seed", num(static_cast<double>(fa.seed)));

  const tuner::RetryPolicy& rp = cfg.retry();
  Members retry;
  retry.emplace_back("max_attempts", num(rp.max_attempts));
  retry.emplace_back("backoff_initial", num(rp.backoff_initial));
  retry.emplace_back("backoff_multiplier", num(rp.backoff_multiplier));
  retry.emplace_back("backoff_max", num(rp.backoff_max));
  retry.emplace_back("sleep_on_backoff", Value::make_bool(rp.sleep_on_backoff));
  retry.emplace_back("timeout_seconds", num(rp.timeout_seconds));
  retry.emplace_back("quarantine_deterministic",
                     Value::make_bool(rp.quarantine_deterministic));
  retry.emplace_back("quarantine_timeout",
                     Value::make_bool(rp.quarantine_timeout));
  retry.emplace_back("quarantine_exhausted",
                     Value::make_bool(rp.quarantine_exhausted));

  Members m;
  m.emplace_back("problem", Value::make_string(cfg.problem()));
  m.emplace_back("machine", Value::make_string(cfg.machine()));
  m.emplace_back("source_machine", Value::make_string(cfg.source_machine()));
  m.emplace_back("compiler", num(static_cast<double>(
                                 static_cast<int>(cfg.compiler()))));
  m.emplace_back("kernel_threads", num(static_cast<double>(
                                       cfg.kernel_threads())));
  m.emplace_back("max_evals", num(cfg.max_evals()));
  m.emplace_back("seed", num(static_cast<double>(cfg.seed())));
  m.emplace_back("pool_size", num(cfg.pool_size()));
  m.emplace_back("delta_percent", num(cfg.delta_percent()));
  m.emplace_back("forest", Value::make_object(std::move(forest)));
  m.emplace_back("failure_budget", Value::make_object(std::move(budget)));
  m.emplace_back("guard", Value::make_object(std::move(guard)));
  m.emplace_back("faults", Value::make_object(std::move(faults)));
  m.emplace_back("observe", Value::make_bool(cfg.observe()));
  m.emplace_back("observe_label", Value::make_string(cfg.observe_label()));
  m.emplace_back("resilient", Value::make_bool(cfg.resilient()));
  m.emplace_back("retry", Value::make_object(std::move(retry)));
  m.emplace_back("eval_threads", num(cfg.eval_threads()));
  m.emplace_back("batch_width", num(cfg.batch_width()));
  m.emplace_back("eval_deadline_seconds", num(cfg.eval_deadline_seconds()));
  return Value::make_object(std::move(m));
}

apps::TuningConfig config_from_json(const Value& v) {
  const auto size_at = [](const Value& o, const char* key) {
    return obs::json::size_member(o, key);
  };
  const auto int_at = [&](const Value& o, const char* key) {
    const std::uint64_t n = size_at(o, key);
    PT_REQUIRE(n <= static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
               std::string("'") + key + "' is out of range");
    return static_cast<int>(n);
  };

  ml::ForestParams fp;
  const Value& forest = v.at("forest");
  fp.num_trees = size_at(forest, "num_trees");
  fp.max_features = size_at(forest, "max_features");
  fp.max_depth = size_at(forest, "max_depth");
  fp.min_samples_leaf = size_at(forest, "min_samples_leaf");
  fp.min_samples_split = size_at(forest, "min_samples_split");
  fp.seed = size_at(forest, "seed");

  tuner::FailureBudget fb;
  const Value& budget = v.at("failure_budget");
  fb.max_consecutive = size_at(budget, "max_consecutive");
  fb.max_total = size_at(budget, "max_total");

  tuner::GuardOptions g;
  const Value& guard = v.at("guard");
  g.enabled = guard.at("enabled").as_bool();
  g.window = size_at(guard, "window");
  g.min_observations = size_at(guard, "min_observations");
  g.floor = guard.at("floor").as_number();
  g.disable_floor = guard.at("disable_floor").as_number();
  g.max_consecutive_prunes = size_at(guard, "max_consecutive_prunes");
  g.refit_after = size_at(guard, "refit_after");
  g.refit_target_weight = size_at(guard, "refit_target_weight");
  g.sync_window = size_at(guard, "sync_window");

  tuner::FaultProfile fa;
  const Value& faults = v.at("faults");
  fa.transient_rate = faults.at("transient_rate").as_number();
  fa.deterministic_rate = faults.at("deterministic_rate").as_number();
  fa.hang_rate = faults.at("hang_rate").as_number();
  fa.hang_stall_seconds = faults.at("hang_stall_seconds").as_number();
  fa.delay_rate = faults.at("delay_rate").as_number();
  fa.delay_seconds = faults.at("delay_seconds").as_number();
  fa.spike_rate = faults.at("spike_rate").as_number();
  fa.spike_factor = faults.at("spike_factor").as_number();
  fa.seed = size_at(faults, "seed");

  tuner::RetryPolicy rp;
  const Value& retry = v.at("retry");
  rp.max_attempts = size_at(retry, "max_attempts");
  rp.backoff_initial = retry.at("backoff_initial").as_number();
  rp.backoff_multiplier = retry.at("backoff_multiplier").as_number();
  rp.backoff_max = retry.at("backoff_max").as_number();
  rp.sleep_on_backoff = retry.at("sleep_on_backoff").as_bool();
  rp.timeout_seconds = retry.at("timeout_seconds").as_number();
  rp.quarantine_deterministic =
      retry.at("quarantine_deterministic").as_bool();
  rp.quarantine_timeout = retry.at("quarantine_timeout").as_bool();
  rp.quarantine_exhausted = retry.at("quarantine_exhausted").as_bool();

  const int compiler_index = int_at(v, "compiler");
  PT_REQUIRE(compiler_index <= static_cast<int>(sim::Compiler::Intel),
             "'compiler' is out of range");
  const auto compiler = static_cast<sim::Compiler>(compiler_index);

  apps::TuningConfig cfg;
  cfg.problem(v.at("problem").as_string())
      .machine(v.at("machine").as_string())
      .source_machine(v.at("source_machine").as_string())
      .compiler(compiler)
      .kernel_threads(int_at(v, "kernel_threads"))
      .max_evals(size_at(v, "max_evals"))
      .seed(size_at(v, "seed"))
      .pool_size(size_at(v, "pool_size"))
      .delta_percent(v.at("delta_percent").as_number())
      .forest(fp)
      .failure_budget(fb)
      .guard(std::move(g))
      .faults(fa)
      .observe(v.at("observe").as_bool())
      .observe_label(v.at("observe_label").as_string())
      .resilient(v.at("resilient").as_bool())
      .retry(rp)
      .eval_threads(size_at(v, "eval_threads"))
      .batch_width(size_at(v, "batch_width"))
      .eval_deadline_seconds(v.at("eval_deadline_seconds").as_number());
  return cfg;
}

/// Session ids become directory names; keep them filesystem- and
/// protocol-safe.
void require_valid_id(const std::string& id) {
  PT_REQUIRE(!id.empty() && id.size() <= 128, "session id must be 1..128 chars");
  for (char c : id)
    PT_REQUIRE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                   c == '_' || c == '.',
               "session id '" + id +
                   "' may only contain [A-Za-z0-9._-]");
  PT_REQUIRE(id != "." && id != "..", "session id '" + id + "' is reserved");
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionHandle

tuner::SessionStepStats SessionHandle::step(std::size_t n) {
  // Span before the lock: lock wait is part of what the caller endured,
  // and the evaluations the step fans out parent under this scope.
  obs::ScopedTimer span("session.step", "service", {{"session", id_}});
  std::lock_guard lock(mutex_);
  PT_REQUIRE(!closed_, "session '" + id_ + "' is closed");
  last_touched_ = obs::mono_now();
  return session_->step(n);
}

std::vector<tuner::ParamConfig> SessionHandle::suggest(std::size_t n) {
  obs::ScopedTimer span("session.suggest", "service", {{"session", id_}});
  std::lock_guard lock(mutex_);
  PT_REQUIRE(!closed_, "session '" + id_ + "' is closed");
  last_touched_ = obs::mono_now();
  return session_->suggest(n);
}

void SessionHandle::report(const tuner::ParamConfig& config, double seconds) {
  obs::ScopedTimer span("session.report", "service", {{"session", id_}});
  std::lock_guard lock(mutex_);
  PT_REQUIRE(!closed_, "session '" + id_ + "' is closed");
  last_touched_ = obs::mono_now();
  session_->report(config, seconds);
  // An externally measured result is as reusable as a service-side one.
  if (seconds > 0.0)
    service_->cache().insert(cached_->scope(),
                             space().config_hash(config), seconds);
}

void SessionHandle::checkpoint() {
  std::lock_guard lock(mutex_);
  // A closed session persisted its final state at close; a checkpoint
  // racing with close() (the SIGTERM sweep) is a no-op, not an error.
  if (closed_) return;
  last_touched_ = obs::mono_now();
  persist_checkpoint_locked();
  persist_meta_locked();
}

tuner::SearchTrace SessionHandle::close() {
  obs::ScopedTimer span("session.close", "service", {{"session", id_}});
  std::lock_guard lock(mutex_);
  if (closed_) return session_->trace();
  last_touched_ = obs::mono_now();
  persist_checkpoint_locked();
  session_->close();
  closed_ = true;
  persist_meta_locked();
  const tuner::SearchTrace& trace = session_->trace();
  // Publish the training trace so future sessions on similar machines
  // start warm. An empty trace (closed before any step) has nothing to
  // teach.
  if (!trace.empty())
    service_->publish_trace(cfg_.problem(), cfg_.machine(), trace, space(),
                            fingerprint_);
  return trace;
}

SessionInfo SessionHandle::info() const {
  std::lock_guard lock(mutex_);
  SessionInfo s;
  s.id = id_;
  s.problem = cfg_.problem();
  s.machine = cfg_.machine();
  s.evals = session_->trace().size();
  s.budget = cfg_.max_evals();
  s.best_seconds = session_->trace().best_seconds();
  s.warm = warm_model_ != nullptr;
  s.warm_source = warm_source_;
  s.idle_seconds = obs::mono_now() - last_touched_;
  s.closed = closed_;
  return s;
}

tuner::SearchTrace SessionHandle::trace_snapshot() const {
  std::lock_guard lock(mutex_);
  return session_->trace();
}

double SessionHandle::idle_seconds() const {
  std::lock_guard lock(mutex_);
  return obs::mono_now() - last_touched_;
}

void SessionHandle::persist_meta_locked() const {
  std::vector<std::pair<std::string, Value>> m;
  m.emplace_back("portatune_session", Value::make_number(1));
  m.emplace_back("id", Value::make_string(id_));
  m.emplace_back("problem", Value::make_string(cfg_.problem()));
  m.emplace_back("machine", Value::make_string(cfg_.machine()));
  m.emplace_back("config", config_to_json(cfg_));
  m.emplace_back("warm_key", Value::make_string(warm_key_));
  m.emplace_back("warm_source", Value::make_string(warm_source_));
  m.emplace_back("fingerprint", fingerprint_json(fingerprint_));
  m.emplace_back("closed", Value::make_bool(closed_));
  m.emplace_back("evals", Value::make_number(
                              static_cast<double>(session_->trace().size())));
  m.emplace_back("best_seconds",
                 Value::make_number(session_->trace().best_seconds()));
  atomic_write_file(dir_ + "/meta.json",
                    Value::make_object(std::move(m)).dump() + "\n");
}

void SessionHandle::persist_checkpoint_locked() const {
  tuner::save_checkpoint_csv(dir_ + "/checkpoint.csv",
                             session_->checkpoint(), space());
}

// ---------------------------------------------------------------------------
// TuningService

TuningService::TuningService(TuningServiceOptions opt)
    : opt_(std::move(opt)),
      cache_(EvalCacheOptions{opt_.cache_capacity}),
      store_(store_options(opt_)) {
  ensure_directory(opt_.data_dir + "/sessions");
}

TuningService::~TuningService() {
  try {
    checkpoint_all();
  } catch (...) {
    // Destructor path: best-effort persistence only.
  }
}

std::unique_ptr<SessionHandle> TuningService::build_session(
    const std::string& id, const apps::TuningConfig& cfg, bool resuming) {
  cfg.validate();
  auto h = std::unique_ptr<SessionHandle>(new SessionHandle());
  h->service_ = this;
  h->id_ = id;
  h->dir_ = session_dir(opt_.data_dir, id);
  h->cfg_ = cfg;
  ensure_directory(h->dir_);

  h->stack_ = cfg.make_stack(apps::StackRole::Single);
  h->cached_ = std::make_unique<CachedEvaluator>(*h->stack_, cache_);

  if (resuming) {
    // The fingerprint was measured at open; reuse it (same machine, same
    // canonical probes — re-measuring is pure cache traffic).
    const Value meta =
        Value::parse(read_file(h->dir_ + "/meta.json"));
    for (const Value& v : meta.at("fingerprint").as_array())
      h->fingerprint_.push_back(v.as_number());
    // The warm decision is part of the session's identity: replaying the
    // draw/rank order requires the *same* surrogate, so resume loads the
    // recorded store entry rather than re-running nearest() against a
    // store that may have changed underneath.
    h->warm_key_ = meta.at("warm_key").as_string();
    h->warm_source_ = meta.at("warm_source").as_string();
    if (!h->warm_key_.empty()) {
      const StoreEntry* entry = store_.find(h->warm_key_);
      PT_REQUIRE(entry != nullptr,
                 "session '" + id + "' warmed from store entry '" +
                     h->warm_key_ + "', which no longer exists");
      h->warm_model_ = store_.load_surrogate(*entry, h->cached_->space());
    }
    if (file_exists(h->dir_ + "/checkpoint.csv"))
      h->resume_snapshot_ = tuner::load_checkpoint_csv(
          h->dir_ + "/checkpoint.csv", h->cached_->space());
  } else {
    h->fingerprint_ =
        measure_fingerprint(*h->cached_, opt_.fingerprint_probes);
    if (const auto match = store_.nearest(cfg.problem(), h->fingerprint_)) {
      try {
        h->warm_model_ =
            store_.load_surrogate(match->entry, h->cached_->space());
        h->warm_key_ = match->entry.key;
        h->warm_source_ = match->entry.machine;
      } catch (const std::exception& e) {
        // The checksum passed at load but the trace would not parse (a
        // forged footer over tampered bytes): quarantine the entry at
        // the point of use and start this session cold — a corrupt
        // store entry must degrade a warm start, never fail an open.
        h->warm_model_.reset();
        h->warm_key_.clear();
        h->warm_source_.clear();
        store_.quarantine(match->entry.key, e.what());
      }
    }
  }
  h->last_touched_ = obs::mono_now();

  tuner::SearchOptions opts = cfg.search_options();
  if (h->resume_snapshot_) opts.resume = &*h->resume_snapshot_;
  h->session_ = std::make_unique<tuner::TuningSession>(
      *h->cached_, opts, h->warm_model_.get(), id);
  h->resume_snapshot_.reset();  // replayed; the session owns state now

  h->persist_meta_locked();  // handle not yet visible: no lock needed
  return h;
}

SessionHandle& TuningService::open(const std::string& id,
                                   const apps::TuningConfig& cfg) {
  require_valid_id(id);
  std::lock_guard lock(mutex_);
  PT_REQUIRE(sessions_.find(id) == sessions_.end(),
             "session '" + id + "' is already open");
  const std::string meta_path =
      session_dir(opt_.data_dir, id) + "/meta.json";
  if (file_exists(meta_path)) {
    const Value meta = Value::parse(read_file(meta_path));
    const Value* closed = meta.find("closed");
    PT_REQUIRE(closed != nullptr && closed->as_bool(),
               "session '" + id +
                   "' has a live checkpoint on disk; resume it instead "
                   "of opening a new session with the same id");
    // The old session's final checkpoint must not outlive its meta: were
    // the fresh session to crash before its first checkpoint, resume()
    // would replay the previous trace against the new config.
    remove_file(session_dir(opt_.data_dir, id) + "/checkpoint.csv");
  }
  auto h = build_session(id, cfg, /*resuming=*/false);
  SessionHandle& ref = *h;
  sessions_.emplace(id, std::move(h));
  return ref;
}

SessionHandle& TuningService::resume(const std::string& id) {
  require_valid_id(id);
  std::lock_guard lock(mutex_);
  PT_REQUIRE(sessions_.find(id) == sessions_.end(),
             "session '" + id + "' is already open in this service");
  const std::string dir = session_dir(opt_.data_dir, id);
  PT_REQUIRE(file_exists(dir + "/meta.json"),
             "no checkpointed session '" + id + "' under " + opt_.data_dir);
  const Value meta = Value::parse(read_file(dir + "/meta.json"));
  PT_REQUIRE(!meta.at("closed").as_bool(),
             "session '" + id + "' was closed; open a new session instead");
  // The meta carries the complete builder state: the resumed evaluator
  // stack (compiler, faults, resilience, parallelism, deadlines) and
  // search options are exactly what the session was opened with, so the
  // replayed trace — and the shared cache scope it feeds — stay
  // bit-identical. Runtime-only members (cancel token, guard callbacks)
  // reset to defaults.
  const apps::TuningConfig cfg = config_from_json(meta.at("config"));
  auto h = build_session(id, cfg, /*resuming=*/true);
  SessionHandle& ref = *h;
  sessions_.emplace(id, std::move(h));
  return ref;
}

SessionHandle* TuningService::find(const std::string& id) {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

SessionHandle* TuningService::try_restore(const std::string& id) {
  try {
    SessionHandle& h = resume(id);
    obs::MetricsRegistry::current()
        .counter("service.sessions_restored")
        .add(1);
    if (obs::enabled(obs::Severity::Info))
      obs::emit(obs::make_instant(obs::Severity::Info,
                                  "service.session_restored", "service",
                                  {{"session", id}}));
    return &h;
  } catch (const std::exception&) {
    // No checkpoint, a closed session, an invalid id: the caller turns
    // nullptr into its own "no open session" error.
    return nullptr;
  }
}

std::vector<std::string> TuningService::reclaim_idle(
    double max_idle_seconds) {
  std::vector<std::string> reclaimed;
  std::vector<SessionHandle*> handles;
  {
    std::lock_guard lock(mutex_);
    handles.reserve(sessions_.size());
    for (auto& [_, h] : sessions_) handles.push_back(h.get());
  }
  for (SessionHandle* h : handles) {
    if (h->idle_seconds() < max_idle_seconds) continue;
    const SessionInfo info = h->info();
    if (!info.closed) {
      // Checkpoint before eviction so a later op on the session resumes
      // it exactly where the client left it. The meta is NOT marked
      // closed — closed means finished, and this session is merely
      // unattended. A failed checkpoint keeps the session live:
      // reclaiming it anyway would lose the un-persisted evaluations.
      try {
        h->checkpoint();
      } catch (const std::exception& e) {
        obs::MetricsRegistry::current()
            .counter("service.checkpoint_failures")
            .add(1);
        if (obs::enabled(obs::Severity::Warn))
          obs::emit(obs::make_instant(
              obs::Severity::Warn, "service.checkpoint_failed", "service",
              {{"session", info.id}, {"error", std::string(e.what())}}));
        continue;
      }
    }
    std::lock_guard lock(mutex_);
    const auto it = sessions_.find(info.id);
    // Skip a handle that was concurrently erased and re-opened: the new
    // incarnation's idle clock starts fresh.
    if (it == sessions_.end() || it->second.get() != h) continue;
    sessions_.erase(it);
    reclaimed.push_back(info.id);
  }
  return reclaimed;
}

std::vector<SessionInfo> TuningService::sessions() const {
  // Copy the handle pointers under the registry lock, then query each
  // without it (info() takes the per-handle lock; holding both here
  // would invert the close() -> publish_trace() lock order).
  std::vector<const SessionHandle*> handles;
  {
    std::lock_guard lock(mutex_);
    handles.reserve(sessions_.size());
    for (const auto& [_, h] : sessions_) handles.push_back(h.get());
  }
  std::vector<SessionInfo> out;
  out.reserve(handles.size());
  for (const SessionHandle* h : handles) out.push_back(h->info());
  return out;
}

void TuningService::checkpoint_all() {
  std::vector<SessionHandle*> handles;
  {
    std::lock_guard lock(mutex_);
    handles.reserve(sessions_.size());
    for (auto& [_, h] : sessions_) handles.push_back(h.get());
  }
  // Best-effort sweep: one session's persistence failure (disk full,
  // directory vanished) must not cost the remaining sessions their
  // checkpoints on the SIGTERM path — but it must not be *silent*
  // either: count it and put it in the event stream.
  for (SessionHandle* h : handles) {
    try {
      h->checkpoint();
    } catch (const std::exception& e) {
      obs::MetricsRegistry::current()
          .counter("service.checkpoint_failures")
          .add(1);
      if (obs::enabled(obs::Severity::Warn))
        obs::emit(obs::make_instant(
            obs::Severity::Warn, "service.checkpoint_failed", "service",
            {{"session", h->id()}, {"error", std::string(e.what())}}));
    }
  }
}

const StoreEntry& TuningService::publish_trace(
    const std::string& problem, const std::string& machine,
    const tuner::SearchTrace& trace, const tuner::ParamSpace& space,
    std::vector<double> fingerprint) {
  std::lock_guard lock(mutex_);
  return store_.put(problem, machine, trace, space, std::move(fingerprint));
}

void TuningService::publish_metrics() {
  cache_.publish_metrics();
  std::vector<const SessionHandle*> handles;
  std::size_t store_entries = 0;
  std::size_t quarantined = 0;
  {
    std::lock_guard lock(mutex_);
    handles.reserve(sessions_.size());
    for (const auto& [_, h] : sessions_) handles.push_back(h.get());
    store_entries = store_.size();
    quarantined = store_.quarantined();
  }
  std::size_t open = 0;
  for (const SessionHandle* h : handles)
    if (!h->info().closed) ++open;
  auto& reg = obs::MetricsRegistry::current();
  reg.gauge("service.sessions_active").set(static_cast<double>(open));
  reg.gauge("service.store.entries").set(static_cast<double>(store_entries));
  reg.gauge("service.store.quarantined")
      .set(static_cast<double>(quarantined));
}

}  // namespace portatune::service
