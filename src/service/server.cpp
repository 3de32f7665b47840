#include "service/server.hpp"

#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/span_context.hpp"

namespace portatune::service {

namespace {

using obs::json::Value;
using Members = std::vector<std::pair<std::string, Value>>;

struct Client {
  int fd = -1;
  std::string inbuf;   ///< bytes received, not yet newline-terminated
  std::string outbuf;  ///< reply bytes not yet written
  bool closing = false;  ///< close after the outbuf drains (oversized line)
  double tokens = 0.0;       ///< rate-limit token bucket level
  double last_refill = 0.0;  ///< mono_now() of the last bucket refill
};

/// Transport-level instruments, bound once per serve loop (nullptr when
/// telemetry is off — every update site checks).
struct WireInstruments {
  obs::Counter* clients_accepted = nullptr;
  obs::Counter* clients_disconnected = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Counter* lines_rejected = nullptr;
  obs::Counter* requests_throttled = nullptr;
  obs::Counter* sessions_reclaimed = nullptr;
  obs::Gauge* clients_connected = nullptr;
  obs::Gauge* requests_in_flight = nullptr;
  obs::Histogram* poll_wait = nullptr;

  static WireInstruments bind() {
    auto& reg = obs::MetricsRegistry::current();
    WireInstruments w;
    w.clients_accepted = &reg.counter("server.clients_accepted");
    w.clients_disconnected = &reg.counter("server.clients_disconnected");
    w.bytes_in = &reg.counter("server.bytes_in");
    w.bytes_out = &reg.counter("server.bytes_out");
    w.lines_rejected = &reg.counter("server.lines_rejected");
    w.requests_throttled = &reg.counter("server.requests_throttled");
    w.sessions_reclaimed = &reg.counter("server.sessions_reclaimed");
    w.clients_connected = &reg.gauge("server.clients_connected");
    w.requests_in_flight = &reg.gauge("server.requests_in_flight");
    w.poll_wait = &reg.histogram("server.poll.wait_seconds");
    return w;
  }
};

void emit_server_event(const char* name, const std::string& socket_path) {
  if (!obs::enabled(obs::Severity::Info)) return;
  obs::emit(obs::make_instant(obs::Severity::Info, name, "service",
                              {{"socket", socket_path}}));
}

/// The typed overload reply: ResilientClient recognizes `retry_after`
/// and backs off exactly that long before retrying the same request.
std::string throttle_reply(double retry_after_seconds) {
  Members m;
  m.emplace_back("ok", Value::make_bool(false));
  m.emplace_back("error", Value::make_string("rate limit exceeded"));
  m.emplace_back("retry_after", Value::make_number(retry_after_seconds));
  return Value::make_object(std::move(m)).dump();
}

/// Write as much of the client's outbuf as the socket accepts.
/// Returns false when the connection is dead.
bool flush_client(Client& c, obs::Counter* bytes_out) {
  while (!c.outbuf.empty()) {
    const ssize_t n = ::send(c.fd, c.outbuf.data(), c.outbuf.size(),
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      if (bytes_out != nullptr)
        bytes_out->add(static_cast<std::uint64_t>(n));
      c.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

int serve_unix_socket(TuningService& svc, const std::string& socket_path,
                      CancellationToken cancel, ServeOptions opt) {
  PT_REQUIRE(!socket_path.empty(), "serve needs a socket path");
  PT_REQUIRE(opt.max_line_bytes > 0, "max_line_bytes must be positive");
  sockaddr_un addr{};
  PT_REQUIRE(socket_path.size() < sizeof(addr.sun_path),
             "socket path too long: " + socket_path);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PT_REQUIRE(listen_fd >= 0,
             std::string("socket(): ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    throw Error("bind(" + socket_path + "): " + why);
  }
  if (::listen(listen_fd, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    throw Error("listen(" + socket_path + "): " + why);
  }

  emit_server_event("service.serve", socket_path);
  const bool telemetry = opt.protocol.telemetry;
  WireInstruments wire;
  if (telemetry) wire = WireInstruments::bind();
  ServiceProtocol protocol(svc, opt.protocol);
  std::vector<Client> clients;
  bool shutdown_op_seen = false;

  double last_publish = -1e18;  // the first iteration publishes
  double last_lease = obs::mono_now();

  const auto teardown = [&] {
    // Deliver any computed-but-unsent replies first: a reply lost at
    // SIGTERM forces the client into a retry the restarted daemon must
    // replay — correct, but avoidable wire traffic.
    for (Client& c : clients)
      flush_client(c, telemetry ? wire.bytes_out : nullptr);
    for (Client& c : clients) ::close(c.fd);
    clients.clear();
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    svc.checkpoint_all();
    // Persist the exactly-once state after the checkpoints: a restarted
    // daemon then both resumes the sessions and replays cached replies.
    protocol.persist_state();
    svc.publish_metrics();
    if (telemetry) wire.clients_connected->set(0.0);
  };

  while (!shutdown_op_seen) {
    if (cancel.cancelled()) {
      emit_server_event("service.interrupted", socket_path);
      teardown();
      return 3;  // interrupted but resumable, like the run orchestrator
    }
    // All the periodic publish does: refresh the service gauges, so the
    // metrics sampler's rows carry current ones without a status op.
    if (opt.status_every_seconds > 0.0) {
      const double now = obs::mono_now();
      if (now - last_publish >= opt.status_every_seconds) {
        last_publish = now;
        svc.publish_metrics();
      }
    }
    if (opt.lease_seconds > 0.0) {
      const double now = obs::mono_now();
      if (now - last_lease >= opt.lease_check_every_seconds) {
        last_lease = now;
        for (const std::string& id : svc.reclaim_idle(opt.lease_seconds)) {
          if (telemetry) wire.sessions_reclaimed->add(1);
          if (obs::enabled(obs::Severity::Warn))
            obs::emit(obs::make_instant(
                obs::Severity::Warn, "server.session_reclaimed", "service",
                {{"session", id}, {"lease_seconds", opt.lease_seconds}}));
        }
      }
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    for (const Client& c : clients)
      fds.push_back({c.fd,
                     static_cast<short>(POLLIN |
                                        (c.outbuf.empty() ? 0 : POLLOUT)),
                     0});
    // Short timeout so the cancel token is observed promptly even when
    // the socket is idle.
    const double poll_t0 = telemetry ? obs::mono_now() : 0.0;
    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (telemetry) wire.poll_wait->observe(obs::mono_now() - poll_t0);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal delivery; loop re-checks
      teardown();
      throw Error(std::string("poll(): ") + std::strerror(errno));
    }
    if (ready == 0) continue;

    // Stage accepts until after the per-client loop: `fds[i + 1]` mirrors
    // the client list the poll set was built from, so appending to
    // `clients` here would make the loop read past the end of `fds`.
    std::vector<Client> accepted;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        Client c;
        c.fd = fd;
        // A fresh connection starts with a full burst allowance.
        c.tokens = opt.client_rate_burst;
        c.last_refill =
            opt.client_rate_limit > 0.0 ? obs::mono_now() : 0.0;
        accepted.push_back(std::move(c));
        if (telemetry) wire.clients_accepted->add(1);
      }
    }

    // Iterate over a stable index range; dead clients are compacted after.
    std::vector<bool> dead(clients.size(), false);
    for (std::size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      const pollfd& p = fds[i + 1];
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        dead[i] = true;
        continue;
      }
      if ((p.revents & POLLIN) && !c.closing) {
        char buf[4096];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          if (!(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                          errno == EINTR)))
            dead[i] = true;
        } else {
          if (telemetry) wire.bytes_in->add(static_cast<std::uint64_t>(n));
          c.inbuf.append(buf, static_cast<std::size_t>(n));
          std::size_t nl;
          while (!c.closing &&
                 (nl = c.inbuf.find('\n')) != std::string::npos) {
            std::string line = c.inbuf.substr(0, nl);
            c.inbuf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            if (line.empty()) continue;
            if (line.size() > opt.max_line_bytes) {
              if (telemetry) wire.lines_rejected->add(1);
              c.outbuf +=
                  "{\"ok\":false,\"error\":\"request line exceeds " +
                  std::to_string(opt.max_line_bytes) + " bytes\"}\n";
              c.closing = true;  // deliver the verdict, then hang up
              break;
            }
            if (opt.client_rate_limit > 0.0) {
              // Token bucket per connection: sustained rate above the
              // limit drains it, and the typed retry_after tells the
              // client exactly how long until the next token. The check
              // sits *before* the protocol so an abusive client cannot
              // consume op counters or replay-cache slots.
              const double now = obs::mono_now();
              c.tokens = std::min(
                  opt.client_rate_burst,
                  c.tokens + (now - c.last_refill) * opt.client_rate_limit);
              c.last_refill = now;
              if (c.tokens < 1.0) {
                if (telemetry) wire.requests_throttled->add(1);
                c.outbuf +=
                    throttle_reply((1.0 - c.tokens) /
                                   opt.client_rate_limit);
                c.outbuf += '\n';
                continue;
              }
              c.tokens -= 1.0;
            }
            // The wire-receive span: parent of the protocol's op span, so
            // the trace tree reads request -> dispatch -> session -> eval.
            const bool tracing = obs::enabled(obs::Severity::Info);
            const double t0 = tracing ? obs::mono_now() : 0.0;
            const std::uint64_t span_id = tracing ? next_span_id() : 0;
            std::optional<SpanScope> scope;
            if (tracing) scope.emplace(SpanContext{span_id});
            if (telemetry) wire.requests_in_flight->set(1.0);
            const ProtocolReply reply = protocol.handle_line(line);
            if (telemetry) wire.requests_in_flight->set(0.0);
            if (tracing) {
              scope.reset();
              obs::Event ev = obs::make_span(
                  obs::Severity::Info, "server.request", "service",
                  obs::mono_now() - t0,
                  {{"client", c.fd},
                   {"bytes_in",
                    static_cast<std::uint64_t>(line.size())},
                   {"bytes_out",
                    static_cast<std::uint64_t>(reply.line.size())}});
              ev.span_id = span_id;
              obs::emit(ev);
            }
            c.outbuf += reply.line;
            c.outbuf += '\n';
            if (reply.shutdown) shutdown_op_seen = true;
          }
          if (!c.closing && c.inbuf.size() > opt.max_line_bytes) {
            // A line that can no longer fit even before its newline
            // arrives: reject it now rather than buffering unboundedly.
            if (telemetry) wire.lines_rejected->add(1);
            c.inbuf.clear();
            c.outbuf +=
                "{\"ok\":false,\"error\":\"request line exceeds " +
                std::to_string(opt.max_line_bytes) + " bytes\"}\n";
            c.closing = true;
          }
        }
      }
      if (!dead[i] &&
          !flush_client(c, telemetry ? wire.bytes_out : nullptr))
        dead[i] = true;
      if (!dead[i] && c.closing && c.outbuf.empty()) dead[i] = true;
    }
    std::vector<Client> alive;
    alive.reserve(clients.size() + accepted.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (dead[i]) {
        ::close(clients[i].fd);
        if (telemetry) wire.clients_disconnected->add(1);
      } else {
        alive.push_back(std::move(clients[i]));
      }
    }
    for (Client& c : accepted) alive.push_back(std::move(c));
    clients = std::move(alive);
    if (telemetry)
      wire.clients_connected->set(static_cast<double>(clients.size()));

    if (shutdown_op_seen) {
      // Best-effort: drain the shutdown acknowledgement before closing.
      for (Client& c : clients)
        flush_client(c, telemetry ? wire.bytes_out : nullptr);
    }
  }

  emit_server_event("service.shutdown", socket_path);
  teardown();
  return 0;
}

ServiceClient::ServiceClient(const std::string& socket_path)
    : socket_path_(socket_path) {
  sockaddr_un addr{};
  PT_REQUIRE(socket_path.size() < sizeof(addr.sun_path),
             "socket path too long: " + socket_path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PT_REQUIRE(fd_ >= 0, std::string("socket(): ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("connect(" + socket_path + "): " + why);
  }
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ServiceClient::call(const std::string& line) {
  PT_REQUIRE(fd_ >= 0, "client is not connected");
  const std::string request = line + "\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw Error("send(" + socket_path_ + "): connection lost");
    sent += static_cast<std::size_t>(n);
  }
  char buf[4096];
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      const std::string reply = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return reply;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw Error("the service hung up before replying on " + socket_path_);
    buf_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string call_unix_socket(const std::string& socket_path,
                             const std::string& line) {
  ServiceClient client(socket_path);
  return client.call(line);
}

}  // namespace portatune::service

#else  // non-UNIX build: no AF_UNIX transport

namespace portatune::service {

int serve_unix_socket(TuningService&, const std::string&,
                      CancellationToken, ServeOptions) {
  throw Error("the tuning service socket transport requires a UNIX system");
}

ServiceClient::ServiceClient(const std::string&) {
  throw Error("the tuning service socket transport requires a UNIX system");
}

ServiceClient::~ServiceClient() = default;

std::string ServiceClient::call(const std::string&) {
  throw Error("the tuning service socket transport requires a UNIX system");
}

std::string call_unix_socket(const std::string&, const std::string&) {
  throw Error("the tuning service socket transport requires a UNIX system");
}

}  // namespace portatune::service

#endif
