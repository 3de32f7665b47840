// Unix-domain-socket front end for the tuning service.
//
// `portatune_cli serve --socket <path>` runs this loop: a stream socket
// accepting multiple concurrent clients, each speaking the line-delimited
// JSON protocol (protocol.hpp).
//
// Threading. One poll() thread owns the sockets and the ServiceProtocol:
// it accepts, frames lines, rate-limits, parses, answers rid replays,
// counts ops, runs the cheap ops, and writes replies. Every op that fits,
// ranks or writes to disk — open, resume, checkpoint, close, and any
// session op whose session is not live (its lazy restore loads a
// checkpoint, fits and ranks) — executes on ThreadPool::global()
// instead; step/suggest/report on a live session, status, stats and
// shutdown run inline, because a thread hop would double their ~0.1 ms
// round trip. Finished pool ops come back through a mutex-guarded list
// and a self-pipe in the poll set; the poll thread then finishes them
// (rid store, instruments, spans) and queues their replies.
//
// Ordering. A framed line waits, not yet begun, in its connection's
// queue while (a) its connection has an op running, (b) its session id
// has an op running, or (c) its rid has an execution running. So at most
// one op runs per session and per connection, each connection's replies
// go out in request order, and a duplicate rid sent on a second
// connection (a ResilientClient retry after its per-attempt timeout) is
// answered from the replay cache once the original finishes instead of
// executing twice. A connection with a line waiting is not read from, so
// the kernel applies backpressure. A connection that dies while its op
// runs still has the op finished and its rid cached for the retry.
//
// Shutdown has two distinct exits, mirroring the run orchestration:
//   * a client sends {"op":"shutdown"}  -> checkpoint all sessions,
//     remove the socket, exit code 0 (deliberate stop);
//   * the cancel token fires (SIGTERM/SIGINT via the installed handler)
//     -> checkpoint all sessions, remove the socket, exit code 3
//     (interrupted but resumable — the same convention the run
//     orchestrator uses, so wrappers treat both uniformly).
// Either way the loop first stops beginning lines, waits for the ops
// running on the pool and delivers their replies; only then does it
// checkpoint. Every open session's checkpoint.csv is current on exit
// (one whose open was running included), and a later `serve` on the
// same data dir can `resume` each one.
//
// Wire observability (the transport half; the per-op half lives in the
// protocol): the loop maintains
//
//   server.clients_accepted / .clients_disconnected    counters
//   server.clients_connected / .requests_in_flight     gauges (ops
//                                                      executing)
//   server.bytes_in / .bytes_out                       counters
//   server.lines_rejected                              counter (oversized)
//   server.poll.wait_seconds                           histogram
//
// plus, when a sink listens, one `server.request` span per begun line,
// from its framing to its reply (the parent of the protocol's
// `server.op.<op>` execution span). Every `status_every_seconds` the
// loop refreshes the service gauges
// (TuningService::publish_metrics), so the rows a metrics sampler
// appends carry current session/store/cache state. The daemon's
// heartbeat is that sampler's time-series (`portatune_cli serve` runs one
// under --data-dir); a live view comes from the `stats` op (`status
// --socket`).
//
// Defence: a line longer than `max_line_bytes` (complete or still
// unterminated) answers {"ok":false,"error":...} and closes that client —
// a runaway or malicious writer cannot grow a buffer unboundedly or
// starve the other clients.
//
// Session leases: with `lease_seconds` > 0 the loop's tick sweeps for
// sessions no client op has touched within the lease, skipping those
// with an op running on the pool. Each one is
// checkpointed and evicted from the live map (counted under
// `server.sessions_reclaimed`, Warn `server.session_reclaimed`) — NOT
// closed: a returning client's next op transparently resumes it from
// the lease checkpoint through the protocol's restore fallback. An
// abandoned client therefore leaks nothing but a directory on disk.
//
// Overload protection: with `client_rate_limit` > 0 each connection gets
// a token bucket (`client_rate_burst` deep, refilled at the limit). A
// request arriving with the bucket empty is answered by a typed error —
// {"ok":false,"error":"rate limit exceeded","retry_after":<seconds>} —
// without touching the protocol (it does not consume op counters), and
// ResilientClient sleeps `retry_after` before retrying. Counted under
// `server.requests_throttled`.
//
// Exactly-once across restarts: teardown (both exit paths) flushes every
// client's pending reply bytes, then persists the protocol's reply cache
// and counters via persist_state() — see protocol.hpp.
#pragma once

#include <string>

#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/cancellation.hpp"

namespace portatune::service {

struct ServeOptions {
  /// Period of the service-gauge refresh; <= 0 disables it.
  double status_every_seconds = 1.0;
  /// Longest accepted request line (bytes, newline excluded).
  std::size_t max_line_bytes = 1 << 20;
  /// Sessions idle longer than this are checkpointed and evicted by the
  /// loop's lease sweep; <= 0 disables leasing (sessions live forever).
  double lease_seconds = 0.0;
  /// How often the lease sweep runs (it walks every session).
  double lease_check_every_seconds = 1.0;
  /// Per-client sustained requests/second; <= 0 disables throttling.
  double client_rate_limit = 0.0;
  /// Token-bucket depth: bursts up to this many requests are absorbed.
  double client_rate_burst = 32.0;
  /// Request-layer knobs (telemetry, slow-request threshold, the rid
  /// replay cache and its state_path).
  ProtocolOptions protocol;
};

/// Serve `svc` on a Unix socket at `socket_path` (an existing socket file
/// there is replaced). Blocks until a shutdown op (returns 0) or until
/// `cancel` fires (returns 3). Throws portatune::Error when the socket
/// cannot be created. On non-UNIX builds, throws unconditionally.
int serve_unix_socket(TuningService& svc, const std::string& socket_path,
                      CancellationToken cancel, ServeOptions opt = {});

/// Persistent client: one connection, many calls. Each call() sends one
/// request line (newline appended) and blocks for the single reply line.
/// Throws portatune::Error when the server is unreachable or hangs up.
/// The loadgen's sessions live on one of these; `portatune_cli call`
/// wraps one per invocation. Not thread-safe.
class ServiceClient {
 public:
  /// Connects immediately; throws when the socket is unreachable.
  explicit ServiceClient(const std::string& socket_path);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Send `line`, return the reply line (without its newline).
  std::string call(const std::string& line);

 private:
  std::string socket_path_;
  int fd_ = -1;
  std::string buf_;  ///< reply bytes past the last returned line
};

/// One-shot client: connect, send `line`, return the single reply line.
/// `portatune_cli call` and the CI chaos test use this.
std::string call_unix_socket(const std::string& socket_path,
                             const std::string& line);

}  // namespace portatune::service
