#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/span_context.hpp"

namespace portatune::service {

namespace {

using obs::json::size_member;
using obs::json::Value;

using Members = std::vector<std::pair<std::string, Value>>;

/// Every op an instrument set is maintained for. "invalid" absorbs lines
/// that fail before an op is known (bad JSON, missing/unknown "op"), so
/// client input can never mint unbounded metric names.
const char* const kOps[] = {"open",   "resume",     "step",  "suggest",
                            "report", "checkpoint", "close", "status",
                            "stats",  "shutdown",   "invalid"};

/// The ops a retried rid may replay: everything that mutates session or
/// store state. status/stats/shutdown are read-only or terminal and are
/// always re-executed (a retried shutdown should still shut down).
bool mutating_op(const std::string& op) {
  return op == "open" || op == "resume" || op == "step" ||
         op == "suggest" || op == "report" || op == "checkpoint" ||
         op == "close";
}

std::string ok_reply(Members members) {
  Members m;
  m.emplace_back("ok", Value::make_bool(true));
  for (auto& kv : members) m.push_back(std::move(kv));
  return Value::make_object(std::move(m)).dump();
}

std::string error_reply(const std::string& message) {
  Members m;
  m.emplace_back("ok", Value::make_bool(false));
  m.emplace_back("error", Value::make_string(message));
  return Value::make_object(std::move(m)).dump();
}

std::string required_string(const Value& req, const char* key) {
  const Value* v = req.find(key);
  PT_REQUIRE(v != nullptr && v->is_string(),
             std::string("request needs a string '") + key + "' member");
  return v->as_string();
}

SessionHandle& required_session(TuningService& svc, const Value& req) {
  const std::string id = required_string(req, "id");
  SessionHandle* h = svc.find(id);
  // Not live does not mean unknown: the daemon may have restarted, or
  // the lease sweep reclaimed the session. Try its on-disk checkpoint
  // before erroring so both cases stay invisible to clients.
  if (h == nullptr) h = svc.try_restore(id);
  PT_REQUIRE(h != nullptr, "no open session '" + id + "'");
  return *h;
}

tuner::ParamConfig parse_config(const Value& v,
                                const tuner::ParamSpace& space) {
  PT_REQUIRE(v.is_array(), "'config' must be an array of value indices");
  tuner::ParamConfig config;
  config.reserve(v.as_array().size());
  for (const Value& item : v.as_array()) {
    PT_REQUIRE(item.is_number() && item.as_number() >= 0 &&
                   item.as_number() <= std::numeric_limits<int>::max() &&
                   item.as_number() == std::floor(item.as_number()),
               "'config' entries must be integer value indices");
    config.push_back(static_cast<int>(item.as_number()));
  }
  space.validate(config);  // throws naming the malformed dimension
  return config;
}

Value config_json(const tuner::ParamConfig& config) {
  std::vector<Value> items;
  items.reserve(config.size());
  for (int idx : config) items.push_back(Value::make_number(idx));
  return Value::make_array(std::move(items));
}

Members session_members(const SessionHandle& h) {
  Members m;
  m.emplace_back("id", Value::make_string(h.id()));
  m.emplace_back("warm", Value::make_bool(h.warm()));
  m.emplace_back("warm_source", Value::make_string(h.warm_source()));
  return m;
}

std::string op_open(TuningService& svc, const Value& req) {
  apps::TuningConfig cfg;
  cfg.problem(required_string(req, "problem"))
      .machine(required_string(req, "machine"));
  // Service sessions are always observed: the per-eval spans are what
  // lets a request span show its evaluation fan-out, and the layer is
  // dormant (no clock reads) when no sink listens at Debug.
  cfg.observe(true);
  cfg.max_evals(size_member(req, "max_evals", cfg.max_evals()))
      .seed(size_member(req, "seed", cfg.seed()))
      .pool_size(size_member(req, "pool_size", cfg.pool_size()))
      .eval_threads(size_member(req, "eval_threads", cfg.eval_threads()));
  SessionHandle& h = svc.open(required_string(req, "id"), cfg);
  return ok_reply(session_members(h));
}

std::string op_resume(TuningService& svc, const Value& req) {
  SessionHandle& h = svc.resume(required_string(req, "id"));
  return ok_reply(session_members(h));
}

std::string op_step(TuningService& svc, const Value& req) {
  SessionHandle& h = required_session(svc, req);
  const tuner::SessionStepStats stats = h.step(size_member(req, "n", 1));
  Members m;
  m.emplace_back("evaluated",
                 Value::make_number(static_cast<double>(stats.evaluated)));
  m.emplace_back("failures",
                 Value::make_number(static_cast<double>(stats.failures)));
  m.emplace_back("best_seconds", Value::make_number(stats.best_seconds));
  m.emplace_back("exhausted", Value::make_bool(stats.exhausted));
  m.emplace_back("evals",
                 Value::make_number(static_cast<double>(h.info().evals)));
  return ok_reply(std::move(m));
}

std::string op_suggest(TuningService& svc, const Value& req) {
  SessionHandle& h = required_session(svc, req);
  const auto configs = h.suggest(size_member(req, "n", 1));
  std::vector<Value> items;
  items.reserve(configs.size());
  for (const auto& c : configs) items.push_back(config_json(c));
  Members m;
  m.emplace_back("configs", Value::make_array(std::move(items)));
  return ok_reply(std::move(m));
}

std::string op_report(TuningService& svc, const Value& req) {
  SessionHandle& h = required_session(svc, req);
  const Value* config = req.find("config");
  PT_REQUIRE(config != nullptr, "request needs a 'config' member");
  const Value* seconds = req.find("seconds");
  PT_REQUIRE(seconds != nullptr && seconds->is_number(),
             "request needs a numeric 'seconds' member");
  h.report(parse_config(*config, h.space()), seconds->as_number());
  return ok_reply({});
}

std::string op_checkpoint(TuningService& svc, const Value& req) {
  required_session(svc, req).checkpoint();
  return ok_reply({});
}

std::string op_close(TuningService& svc, const Value& req) {
  SessionHandle& h = required_session(svc, req);
  const tuner::SearchTrace trace = h.close();
  Members m;
  m.emplace_back("evals",
                 Value::make_number(static_cast<double>(trace.size())));
  m.emplace_back("best_seconds", Value::make_number(trace.best_seconds()));
  return ok_reply(std::move(m));
}

Members cache_members(const EvalCacheStats& cs) {
  Members cache;
  cache.emplace_back("hits",
                     Value::make_number(static_cast<double>(cs.hits)));
  cache.emplace_back("misses",
                     Value::make_number(static_cast<double>(cs.misses)));
  cache.emplace_back("insertions",
                     Value::make_number(static_cast<double>(cs.insertions)));
  cache.emplace_back("evictions",
                     Value::make_number(static_cast<double>(cs.evictions)));
  cache.emplace_back("size",
                     Value::make_number(static_cast<double>(cs.size)));
  return cache;
}

std::string op_status(TuningService& svc) {
  svc.publish_metrics();
  std::vector<Value> sessions;
  for (const SessionInfo& s : svc.sessions()) {
    Members m;
    m.emplace_back("id", Value::make_string(s.id));
    m.emplace_back("problem", Value::make_string(s.problem));
    m.emplace_back("machine", Value::make_string(s.machine));
    m.emplace_back("evals",
                   Value::make_number(static_cast<double>(s.evals)));
    m.emplace_back("budget",
                   Value::make_number(static_cast<double>(s.budget)));
    m.emplace_back("best_seconds", Value::make_number(s.best_seconds));
    m.emplace_back("warm", Value::make_bool(s.warm));
    m.emplace_back("warm_source", Value::make_string(s.warm_source));
    m.emplace_back("idle_seconds", Value::make_number(s.idle_seconds));
    m.emplace_back("closed", Value::make_bool(s.closed));
    sessions.push_back(Value::make_object(std::move(m)));
  }
  Members store;
  store.emplace_back(
      "entries",
      Value::make_number(static_cast<double>(svc.store().size())));
  store.emplace_back(
      "quarantined",
      Value::make_number(static_cast<double>(svc.store().quarantined())));
  Members m;
  m.emplace_back("sessions", Value::make_array(std::move(sessions)));
  m.emplace_back("cache", Value::make_object(cache_members(svc.cache().stats())));
  m.emplace_back("store", Value::make_object(std::move(store)));
  return ok_reply(std::move(m));
}

/// The observability counterpart of `status`: a process summary plus the
/// full metrics snapshot of the registry current *now* (= the server's
/// registry), compact enough for one reply line. `portatune_cli status
/// --socket` renders it; the loadgen cross-checks its client-side op
/// counts against the server.op.* counters in here.
std::string op_stats(TuningService& svc, std::uint64_t requests_handled) {
  svc.publish_metrics();
  Members server;
#if defined(__unix__) || defined(__APPLE__)
  server.emplace_back("pid",
                      Value::make_number(static_cast<double>(::getpid())));
#else
  server.emplace_back("pid", Value::make_number(0.0));
#endif
  server.emplace_back("uptime_seconds", Value::make_number(obs::mono_now()));
  server.emplace_back(
      "requests",
      Value::make_number(static_cast<double>(requests_handled)));
  std::size_t open = 0, closed = 0;
  for (const SessionInfo& s : svc.sessions()) (s.closed ? closed : open)++;
  server.emplace_back("sessions_open",
                      Value::make_number(static_cast<double>(open)));
  server.emplace_back("sessions_closed",
                      Value::make_number(static_cast<double>(closed)));
  server.emplace_back(
      "store_entries",
      Value::make_number(static_cast<double>(svc.store().size())));
  server.emplace_back("cache",
                      Value::make_object(cache_members(svc.cache().stats())));
  Members m;
  m.emplace_back("server", Value::make_object(std::move(server)));
  m.emplace_back("metrics",
                 obs::MetricsRegistry::current().snapshot().to_value());
  return ok_reply(std::move(m));
}

}  // namespace

ServiceProtocol::ServiceProtocol(TuningService& svc, ProtocolOptions opt)
    : svc_(svc), opt_(std::move(opt)) {
  if (opt_.telemetry) {
    auto& reg = obs::MetricsRegistry::current();
    requests_total_ = &reg.counter("server.requests");
    requests_failed_ = &reg.counter("server.requests_failed");
    replays_ = &reg.counter("server.rid.replays");
    for (const char* op : kOps) {
      const std::string prefix = std::string("server.op.") + op;
      OpInstruments ins;
      ins.count = &reg.counter(prefix + ".count");
      ins.errors = &reg.counter(prefix + ".errors");
      ins.latency = &reg.histogram(prefix + ".latency");
      per_op_.emplace(op, ins);
    }
  }
  load_state();
}

ServiceProtocol::OpInstruments& ServiceProtocol::instruments(
    const std::string& op) {
  const auto it = per_op_.find(op);
  return it != per_op_.end() ? it->second : per_op_.find("invalid")->second;
}

std::size_t ServiceProtocol::replay_cache_size() const noexcept {
  std::size_t n = 0;
  for (const auto& [client, cache] : replay_) n += cache.replies.size();
  return n;
}

const std::string* ServiceProtocol::replay_lookup(const std::string& client,
                                                  const std::string& rid) {
  const auto it = replay_.find(client);
  if (it == replay_.end()) return nullptr;
  it->second.last_used = ++replay_tick_;
  const auto rit = it->second.replies.find(rid);
  return rit != it->second.replies.end() ? &rit->second : nullptr;
}

void ServiceProtocol::replay_store(const std::string& client,
                                   const std::string& rid,
                                   const std::string& reply) {
  if (opt_.replay_cache_per_client == 0 || opt_.replay_cache_clients == 0)
    return;
  auto it = replay_.find(client);
  if (it == replay_.end()) {
    // New client: evict the least-recently-used one when full. Bounded
    // state is the whole point — an adversarial client minting ids can
    // only displace other clients' caches, never grow the daemon.
    while (replay_.size() >= opt_.replay_cache_clients) {
      auto lru = replay_.begin();
      for (auto cit = replay_.begin(); cit != replay_.end(); ++cit)
        if (cit->second.last_used < lru->second.last_used) lru = cit;
      replay_.erase(lru);
    }
    it = replay_.emplace(client, ReplayCache{}).first;
  }
  ReplayCache& cache = it->second;
  cache.last_used = ++replay_tick_;
  if (cache.replies.count(rid) != 0) return;  // retried before we replied
  while (cache.replies.size() >= opt_.replay_cache_per_client) {
    cache.replies.erase(cache.order.front());
    cache.order.pop_front();
  }
  cache.replies.emplace(rid, reply);
  cache.order.push_back(rid);
}

void ServiceProtocol::persist_state() const {
  if (opt_.state_path.empty()) return;
  try {
    Members counters;
    if (opt_.telemetry) {
      counters.emplace_back(
          "server.requests",
          Value::make_number(static_cast<double>(requests_total_->value())));
      counters.emplace_back(
          "server.requests_failed",
          Value::make_number(static_cast<double>(requests_failed_->value())));
      counters.emplace_back(
          "server.rid.replays",
          Value::make_number(static_cast<double>(replays_->value())));
      for (const auto& [op, ins] : per_op_) {
        const std::string prefix = "server.op." + op;
        counters.emplace_back(
            prefix + ".count",
            Value::make_number(static_cast<double>(ins.count->value())));
        counters.emplace_back(
            prefix + ".errors",
            Value::make_number(static_cast<double>(ins.errors->value())));
      }
    }
    Members clients;
    for (const auto& [client, cache] : replay_) {
      std::vector<Value> pairs;
      pairs.reserve(cache.order.size());
      for (const std::string& rid : cache.order) {
        std::vector<Value> pair;
        pair.push_back(Value::make_string(rid));
        pair.push_back(Value::make_string(cache.replies.at(rid)));
        pairs.push_back(Value::make_array(std::move(pair)));
      }
      clients.emplace_back(client, Value::make_array(std::move(pairs)));
    }
    Members m;
    m.emplace_back("portatune_protocol_state", Value::make_number(1.0));
    m.emplace_back("requests",
                   Value::make_number(static_cast<double>(requests_)));
    m.emplace_back("counters", Value::make_object(std::move(counters)));
    m.emplace_back("clients", Value::make_object(std::move(clients)));
    atomic_write_file(opt_.state_path,
                      Value::make_object(std::move(m)).dump() + "\n");
  } catch (const std::exception& e) {
    // Losing the replay cache degrades retry behaviour; it must never
    // kill the daemon's shutdown path. Count it so operators see it.
    obs::MetricsRegistry::current()
        .counter("server.state_persist_failures")
        .add(1);
    if (obs::enabled(obs::Severity::Warn))
      obs::emit(obs::make_instant(obs::Severity::Warn,
                                  "server.state_persist_failed", "service",
                                  {{"path", opt_.state_path},
                                   {"error", std::string(e.what())}}));
  }
}

void ServiceProtocol::load_state() {
  if (opt_.state_path.empty() || !file_exists(opt_.state_path)) return;
  try {
    const Value state = Value::parse(read_file(opt_.state_path));
    PT_REQUIRE(state.is_object() &&
                   state.find("portatune_protocol_state") != nullptr,
               "not a protocol state file");
    requests_ = size_member(state, "requests", requests_);
    // Counter continuity across the restart: the registry starts at
    // zero, so *add* the persisted totals back. A loadgen stats delta
    // spanning the restart then sees one monotone sequence. Every total
    // is checked before any is added.
    if (opt_.telemetry) {
      if (const Value* counters = state.find("counters");
          counters != nullptr && counters->is_object()) {
        std::vector<std::pair<std::string, std::uint64_t>> totals;
        for (const auto& [name, v] : counters->as_object())
          totals.emplace_back(name, size_member(*counters, name));
        auto& reg = obs::MetricsRegistry::current();
        for (const auto& [name, total] : totals)
          if (total > 0) reg.counter(name).add(total);
      }
    }
    if (const Value* clients = state.find("clients");
        clients != nullptr && clients->is_object()) {
      for (const auto& [client, pairs] : clients->as_object()) {
        if (!pairs.is_array()) continue;
        for (const Value& pair : pairs.as_array()) {
          if (!pair.is_array() || pair.as_array().size() != 2) continue;
          const Value& rid = pair.as_array()[0];
          const Value& reply = pair.as_array()[1];
          if (rid.is_string() && reply.is_string())
            replay_store(client, rid.as_string(), reply.as_string());
        }
      }
    }
  } catch (const std::exception& e) {
    // A torn or foreign state file must not stop the daemon from
    // starting; it just starts with an empty replay cache.
    replay_.clear();
    obs::MetricsRegistry::current()
        .counter("server.state_restore_failures")
        .add(1);
    if (obs::enabled(obs::Severity::Warn))
      obs::emit(obs::make_instant(obs::Severity::Warn,
                                  "server.state_restore_failed", "service",
                                  {{"path", opt_.state_path},
                                   {"error", std::string(e.what())}}));
  }
}

ProtocolReply ServiceProtocol::handle_line(const std::string& line) {
  const std::uint64_t req_id = ++requests_;
  // Dormant path: telemetry off and nothing listening => no clock reads,
  // no span bookkeeping; the request costs parse + dispatch + reply.
  const bool tracing = obs::enabled(obs::Severity::Info);
  const bool timed = opt_.telemetry || tracing;
  const double t0 = timed ? obs::mono_now() : 0.0;

  // Open the request span *before* dispatch so everything the op does —
  // the session op span, every evaluation the step fans out to pool
  // threads — parents under this request in the trace tree.
  const std::uint64_t span_id = tracing ? next_span_id() : 0;
  const std::uint64_t parent_span = current_span_context().span;
  std::optional<SpanScope> scope;
  if (tracing) scope.emplace(SpanContext{span_id});

  std::string op = "invalid";
  std::string session_id;
  std::string error;
  std::string rid;
  std::string rid_client;
  bool replayed = false;
  ProtocolReply reply;
  // Requests are *counted* on arrival (as soon as the op is known), so a
  // `stats` reply's snapshot includes the very request that produced it;
  // errors and latency are recorded on completion below. Replays are the
  // exception: they count only under server.requests and
  // server.rid.replays — the per-op counters record executions, exactly
  // one per logical client call, which is what the loadgen cross-checks.
  bool counted = false;
  const auto count_arrival = [&] {
    if (opt_.telemetry && !counted) {
      counted = true;
      requests_total_->add(1);
      if (replayed) replays_->add(1);
      else instruments(op).count->add(1);
    }
  };
  try {
    const Value req = Value::parse(line);
    PT_REQUIRE(req.is_object(), "request must be a JSON object");
    if (const Value* v = req.find("id"); v != nullptr && v->is_string())
      session_id = v->as_string();
    const std::string requested = required_string(req, "op");
    for (const char* known : kOps)
      if (requested == known && requested != "invalid") op = requested;
    PT_REQUIRE(op != "invalid", "unknown op '" + requested + "'");
    if (const Value* v = req.find("rid"); v != nullptr && mutating_op(op)) {
      PT_REQUIRE(v->is_string(), "'rid' must be a string");
      rid = v->as_string();
      const std::size_t colon = rid.rfind(':');
      rid_client = colon == std::string::npos ? rid : rid.substr(0, colon);
      if (const std::string* cached = replay_lookup(rid_client, rid)) {
        // Exactly-once: this rid already executed and we remember what
        // we said. Replay it verbatim — re-executing a step/report
        // would double-consume draws and fork the CRN trace.
        replayed = true;
        reply = {*cached, false};
        count_arrival();
        return reply;
      }
    }
    count_arrival();
    if (op == "open") reply = {op_open(svc_, req), false};
    else if (op == "resume") reply = {op_resume(svc_, req), false};
    else if (op == "step") reply = {op_step(svc_, req), false};
    else if (op == "suggest") reply = {op_suggest(svc_, req), false};
    else if (op == "report") reply = {op_report(svc_, req), false};
    else if (op == "checkpoint") reply = {op_checkpoint(svc_, req), false};
    else if (op == "close") reply = {op_close(svc_, req), false};
    else if (op == "status") reply = {op_status(svc_), false};
    else if (op == "stats") reply = {op_stats(svc_, requests_), false};
    else {  // shutdown
      Members m;
      m.emplace_back("shutdown", Value::make_bool(true));
      reply = {ok_reply(std::move(m)), true};
    }
  } catch (const std::exception& e) {
    error = e.what();
    reply = {error_reply(error), false};
  }
  count_arrival();  // parse/validation failures count under "invalid"
  const bool failed = !error.empty();

  // Error replies are cached too: a deterministic failure (bad config,
  // closed session) must answer a retry the same way, not re-execute
  // into a *different* failure — or worse, a success — on the retry.
  if (!rid.empty()) replay_store(rid_client, rid, reply.line);

  if (failed && obs::enabled(obs::Severity::Warn)) {
    // Satellite: op errors reach the event stream (and so the flight
    // recorder's ring), not just the failing client.
    obs::emit(obs::make_instant(obs::Severity::Warn, "service.op_error",
                                "service",
                                {{"req", req_id},
                                 {"op", op},
                                 {"session", session_id},
                                 {"error", error}}));
  }

  if (timed) {
    const double elapsed = obs::mono_now() - t0;
    if (opt_.telemetry) {
      if (failed) requests_failed_->add(1);
      OpInstruments& ins = instruments(op);
      if (failed) ins.errors->add(1);
      ins.latency->observe(elapsed);
    }
    if (opt_.slow_request_seconds > 0.0 &&
        elapsed > opt_.slow_request_seconds &&
        obs::enabled(obs::Severity::Warn)) {
      obs::emit(obs::make_instant(obs::Severity::Warn, "server.slow_request",
                                  "service",
                                  {{"req", req_id},
                                   {"op", op},
                                   {"session", session_id},
                                   {"seconds", elapsed},
                                   {"threshold",
                                    opt_.slow_request_seconds}}));
    }
    if (tracing) {
      obs::Event ev = obs::make_span(
          obs::Severity::Info, "server.op." + op, "service", elapsed,
          {{"req", req_id},
           {"op", op},
           {"session", session_id},
           {"ok", !failed},
           {"bytes_in", static_cast<std::uint64_t>(line.size())},
           {"bytes_out", static_cast<std::uint64_t>(reply.line.size())}});
      ev.span_id = span_id;
      ev.parent_span_id = parent_span;
      obs::emit(ev);
    }
  }
  return reply;
}

}  // namespace portatune::service
