// Wire protocol of the tuning service: line-delimited JSON requests.
//
// Each request is one JSON object on one line with an "op" member; each
// reply is one JSON object on one line with an "ok" member. The protocol
// layer is transport-agnostic — the Unix-socket server (server.hpp)
// feeds it lines, and tests drive it directly.
//
// Ops (members beyond "op"):
//   open        id, problem, machine, max_evals?, seed?, pool_size?,
//               eval_threads?            -> {ok,id,warm,warm_source}
//   resume      id                       -> {ok,id,warm,warm_source}
//   step        id, n?                   -> {ok,evaluated,failures,
//                                            best_seconds,exhausted,evals}
//   suggest     id, n?                   -> {ok,configs:[[idx,...],...]}
//   report      id, config:[idx,...], seconds
//                                        -> {ok}
//   checkpoint  id                       -> {ok}
//   close       id                       -> {ok,evals,best_seconds}
//   status                               -> {ok,sessions:[...],cache:{...},
//                                            store:{entries,quarantined}}
//   stats                                -> {ok,server:{pid,uptime,...},
//                                            metrics:{counters,gauges,
//                                            histograms}} — a full metrics
//                                           snapshot over the wire; what
//                                           `portatune_cli status --socket`
//                                           and the loadgen cross-check read
//   shutdown                             -> {ok,shutdown:true} and the
//                                           reply asks the server to stop
//
// Exactly-once retries: every *mutating* op (open/resume/step/suggest/
// report/checkpoint/close) may carry an optional string "rid" — a
// client-generated idempotency key, by convention "<client id>:<seq>".
// The protocol remembers the reply it gave each rid in a bounded
// per-client cache; a retried request with a seen rid *replays* the
// stored reply instead of re-executing, so a client that lost a reply to
// a hangup can retry without double-consuming draws — the trace stays
// bit-identical to an unfailed run (the CRN discipline). Replays count
// under `server.rid.replays`, NOT under `server.op.<op>.count`, so the
// loadgen's exact client/server cross-check holds under retries: the op
// counters record *executions*, exactly one per logical client call.
// Requests without a rid never touch the cache (BM_ProtocolRidDormant
// holds that line). A non-string rid is an error. The socket server
// holds a line whose rid is still executing (a retry on a second
// connection) until that execution finishes, so it replays too.
//
// When `ProtocolOptions::state_path` is set, persist_state() (called by
// the server's teardown on both exit paths) writes the exactly-once
// state — the reply cache plus the op counters — and a later protocol
// constructed with the same path restores it, so retries that span a
// SIGTERM -> restart of the daemon still replay and the counters stay
// continuous across the restart.
//
// A session op whose handle is not live (the daemon restarted, or the
// lease sweep reclaimed an idle session) transparently resumes the
// session from its on-disk checkpoint before dispatching — counted under
// `service.sessions_restored`. Only genuinely unknown (or closed)
// sessions error.
//
// Configurations travel as JSON arrays of parameter *value indices*
// (the tuner's ParamConfig representation), in the space's parameter
// order. Any error — unknown op, malformed JSON, unknown session, failed
// evaluation — becomes {"ok":false,"error":"..."}; the connection stays
// usable.
//
// Request stages. handle_line() runs four stages back to back; the
// socket server (server.hpp) runs them itself so that an op which fits,
// ranks or writes to disk can execute on a pool thread while the poll
// thread keeps serving other connections:
//
//   parse()    side-effect free: JSON, op, session id, rid. The server
//              reads these to decide whether the line must wait (its
//              session or rid has an op running) and where it runs.
//   begin()    owner thread: request id, rid replay, count on arrival.
//   execute()  any thread: runs the op against the service. It reads no
//              protocol state, so it may run concurrently with begin()
//              and finish() of other requests.
//   finish()   owner thread: rid store, error and latency instruments,
//              events and spans; returns the reply.
//
// The "owner" is whichever thread owns the protocol (the server's poll
// thread); begin() and finish() are not thread-safe.
//
// Request observability (this layer is where a wire request becomes a
// *traced* request): every begun request is assigned a process-unique
// request id and — when a sink is listening — a causal span named
// `server.op.<op>` (category "service", fields req/op/session/
// bytes_in/bytes_out/ok) covering its execution. execute() installs that
// span as the thread-local SpanContext on whichever thread runs it, so
// the session op span and every evaluation the step fans out nest under
// it: one Chrome trace shows wire-receive -> dispatch -> session step ->
// eval for each request. With telemetry enabled the protocol also
// maintains per-op instruments in the registry current at construction:
//
//   server.requests                 counter, every line begun
//   server.requests_failed          counter, lines answered {"ok":false}
//   server.rid.replays              counter, retried rids answered from
//                                   the reply cache (not re-executed)
//   server.op.<name>.count          counter  (name "invalid" = the line
//   server.op.<name>.errors         counter   failed before an op was
//   server.op.<name>.latency        histogram known: bad JSON/unknown op)
//   server.request.queue_seconds    histogram, line framed -> execution
//                                   start, one sample per executed op
//
// Counts are recorded on arrival at begin(), so the snapshot a `stats`
// reply carries includes the stats request itself; errors are recorded
// on completion. `latency` measures execution only, and `queue_seconds`
// the wait before it (held behind a busy session, rid or connection,
// queued for a pool thread), so a client's latency is about queue +
// latency + the wire. Replays and lines that fail to parse execute
// nothing and record neither.
//
// Requests whose execution exceeds the slow threshold emit a Warn
// `server.slow_request` event. Failed ops additionally emit a Warn
// `service.op_error` event (op, session id, error string) so the flight
// recorder's ring carries recent per-client failures into crash dumps.
// Dormant path: with telemetry disabled and no sink installed a
// handled line costs no clock read, no instrument update and no
// allocation beyond the reply itself (BM_ServerOpDormant holds the line).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "obs/json.hpp"
#include "service/service.hpp"

namespace portatune::service {

struct ProtocolReply {
  std::string line;       ///< one JSON object, no trailing newline
  bool shutdown = false;  ///< the client asked the server to stop
};

/// One request line on its way through the stages (see above). parse()
/// fills the routing fields; the rest belongs to the protocol.
struct ProtocolRequest {
  std::string op = "invalid";  ///< a known op, or "invalid"
  std::string session;         ///< the "id" member, when a string
  std::string rid;             ///< a mutating op's rid, when present

  // Protocol-internal state, carried between the stages.
  obs::json::Value body;      ///< the parsed line
  std::string error;          ///< why the line cannot execute, or why it failed
  std::string rid_client;     ///< the rid's client prefix
  std::size_t bytes_in = 0;
  double framed = -1.0;       ///< mono_now() when the line was framed
  std::uint64_t req_id = 0;
  std::uint64_t span = 0;         ///< the server.op span (0: untraced)
  std::uint64_t parent_span = 0;  ///< the context begin() ran under
  bool answered = false;  ///< begin() answered it: replay or parse error
  bool replayed = false;
  double exec_start = 0.0;    ///< mono_now() when execute() started
  double exec_seconds = 0.0;
  ProtocolReply reply;
};

struct ProtocolOptions {
  /// Maintain the per-op counters/latency histograms. Off = the only
  /// observability left is event spans when a sink is installed.
  bool telemetry = true;
  /// Requests that execute longer than this emit a Warn
  /// `server.slow_request` event (0 disables the check).
  double slow_request_seconds = 1.0;
  /// Reply-cache bounds for the exactly-once rid protocol: replies
  /// remembered per client (the rid prefix before the last ':'), and
  /// distinct clients remembered (LRU-evicted beyond that). A synchronous
  /// client only ever needs its latest reply; the slack absorbs
  /// pipelining and slow reconnects.
  std::size_t replay_cache_per_client = 128;
  std::size_t replay_cache_clients = 256;
  /// When non-empty, persist_state() writes the exactly-once state (the
  /// reply cache + op counters) here atomically, and construction
  /// restores it — retries spanning a daemon restart still replay.
  std::string state_path;
};

class ServiceProtocol {
 public:
  /// With telemetry on, the per-op instruments are bound to the metrics
  /// registry current at construction (the ObservedEvaluator idiom), so
  /// a protocol must not outlive a registry redirect it was built under.
  /// When `opt.state_path` names an existing state file, the reply cache
  /// and counters persisted by a previous protocol are restored.
  explicit ServiceProtocol(TuningService& svc, ProtocolOptions opt = {});

  /// Handle one request line: parse, begin, execute and finish back to
  /// back. Never throws: every failure is an {"ok":false} reply. Not
  /// thread-safe (tests and in-process callers).
  ProtocolReply handle_line(const std::string& line);

  /// Stage 0: parse `line`, framed at mono_now() `framed` (< 0: begin()
  /// reads the clock when the line is timed). Never throws: a malformed
  /// line becomes an "invalid" request that begin() answers.
  static ProtocolRequest parse(const std::string& line, double framed = -1.0);
  /// Stage 1: assign the request id, replay a remembered rid, count the
  /// op. Returns true when the request still has to execute(); false
  /// when it is answered (replay, or a line that did not parse).
  bool begin(ProtocolRequest& req);
  /// Stage 2: run the op; safe on any thread (see above).
  void execute(ProtocolRequest& req) const;
  /// Stage 3: record the outcome and return the reply (moved out of
  /// `req`).
  ProtocolReply finish(ProtocolRequest& req);

  /// Total lines begun (assigned request ids 1..n). Restored across a
  /// restart when state_path is set.
  std::uint64_t requests_handled() const noexcept { return requests_; }

  /// Rids currently remembered across all clients (tests, status).
  std::size_t replay_cache_size() const noexcept;

  /// Write the exactly-once state to `state_path` (atomic replace).
  /// No-op when state_path is empty; persistence failures are swallowed
  /// after counting `server.state_persist_failures` — losing the replay
  /// cache degrades retries, it must not kill the daemon.
  void persist_state() const;

 private:
  struct OpInstruments {
    obs::Counter* count = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };
  OpInstruments& instruments(const std::string& op);

  /// One client's remembered replies, FIFO-bounded; `last_used` orders
  /// clients for LRU eviction.
  struct ReplayCache {
    std::map<std::string, std::string> replies;  ///< rid -> reply line
    std::deque<std::string> order;               ///< insertion order
    std::uint64_t last_used = 0;
  };
  const std::string* replay_lookup(const std::string& client,
                                   const std::string& rid);
  void replay_store(const std::string& client, const std::string& rid,
                    const std::string& reply);
  void load_state();

  TuningService& svc_;
  ProtocolOptions opt_;
  std::uint64_t requests_ = 0;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* requests_failed_ = nullptr;
  obs::Counter* replays_ = nullptr;
  obs::Histogram* queue_ = nullptr;
  std::map<std::string, OpInstruments> per_op_;
  std::map<std::string, ReplayCache> replay_;
  std::uint64_t replay_tick_ = 0;
};

}  // namespace portatune::service
