#include "service/server.hpp"

#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/span_context.hpp"
#include "support/thread_pool.hpp"

namespace portatune::service {

namespace {

using obs::json::Value;
using Members = std::vector<std::pair<std::string, Value>>;

/// A framed request line that has not begun yet.
struct Line {
  std::string text;
  double framed = -1.0;    ///< mono_now() when framed; < 0 untimed
  bool oversized = false;  ///< over max_line_bytes: reject, then hang up
};

struct Client {
  std::uint64_t id = 0;  ///< names the connection to completions (fds recycle)
  int fd = -1;
  std::string inbuf;      ///< bytes received, not yet newline-terminated
  std::deque<Line> lines;  ///< framed, not yet begun, oldest first
  /// The head line, parsed, while its session or rid has an op running.
  std::optional<ProtocolRequest> held;
  std::string outbuf;  ///< reply bytes not yet written
  bool closing = false;  ///< close after the outbuf drains (oversized line)
  bool running = false;  ///< one of its ops runs on the pool
  double tokens = 0.0;       ///< rate-limit token bucket level
  double last_refill = 0.0;  ///< mono_now() of the last bucket refill
};

/// A begun request and the wire span around it.
struct Pending {
  std::uint64_t client = 0;  ///< Client::id
  std::uint64_t span = 0;    ///< the server.request span (0: untraced)
  ProtocolRequest req;
};

/// Ops finished on pool threads, handed back to the poll thread: a
/// mutex-guarded list, and a self-pipe in the poll set to wake it.
class Completions {
 public:
  Completions() {
    PT_REQUIRE(::pipe(wake_) == 0,
               std::string("pipe(): ") + std::strerror(errno));
    for (const int fd : wake_) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  }
  ~Completions() {
    ::close(wake_[0]);
    ::close(wake_[1]);
  }
  Completions(const Completions&) = delete;
  Completions& operator=(const Completions&) = delete;

  int fd() const noexcept { return wake_[0]; }

  /// Pool side. The wake-up is written under the lock, so once the poll
  /// thread has taken `p` the worker touches nothing of the loop's.
  void push(Pending p) {
    std::lock_guard lock(mutex_);
    done_.push_back(std::move(p));
    const char byte = 0;
    // A full pipe already holds a wake-up; nothing else can fail here.
    [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
  }

  /// Poll side: drain the wake-ups, take every finished op.
  std::vector<Pending> take() {
    char buf[256];
    while (::read(wake_[0], buf, sizeof(buf)) > 0) {
    }
    std::lock_guard lock(mutex_);
    return std::exchange(done_, {});
  }

 private:
  int wake_[2] = {-1, -1};
  std::mutex mutex_;
  std::vector<Pending> done_;
};

/// Whether a begun request runs on the poll thread. Everything that
/// fits, ranks or writes to disk goes to the pool: open, resume,
/// checkpoint, close, and a session op whose session is not live (its
/// lazy restore loads a checkpoint, fits and ranks). A thread hop would
/// double the ~0.1 ms round trip of the cheap ops that stay.
bool runs_inline(const ProtocolRequest& req, TuningService& svc) {
  if (req.op == "step" || req.op == "suggest" || req.op == "report")
    return svc.find(req.session) != nullptr;
  return req.op == "status" || req.op == "stats" || req.op == "shutdown";
}

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

std::string oversized_reply(std::size_t max_line_bytes) {
  return "{\"ok\":false,\"error\":\"request line exceeds " +
         std::to_string(max_line_bytes) + " bytes\"}\n";
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
  Completions completions;

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
  std::uint64_t next_client = 0;
  // What the hold rule reads: a line waits while its connection, its
  // session id or its rid has an op running on the pool.
  std::set<std::string> busy_sessions, busy_rids;
  std::size_t running = 0;  ///< ops submitted and not yet finished
  // A task's future is ready once it has pushed its completion and the
  // pool observer has seen it finish. Teardown waits for these, so the
  // caller may uninstall the observer once serving returns.
  std::vector<std::future<void>> tasks;
  // Tasks use `protocol` and `completions`: an exception unwinding this
  // frame waits for them too.
  struct WaitForTasks {
    std::vector<std::future<void>>& tasks;
    ~WaitForTasks() {
      for (const std::future<void>& f : tasks) f.wait();
    }
  } wait_for_tasks{tasks};
  bool stopping = false;    ///< no line begins any more (shutdown)

  double last_publish = -1e18;  // the first iteration publishes
  double last_lease = obs::mono_now();

  const auto client_by_id = [&](std::uint64_t id) -> Client* {
    for (Client& c : clients)
      if (c.id == id) return &c;
    return nullptr;
  };
  const auto set_in_flight = [&](std::size_t n) {
    if (telemetry) wire.requests_in_flight->set(static_cast<double>(n));
  };

  // Record a request's outcome and queue its reply, in the order the
  // connection sent its lines. A connection that died meanwhile gets no
  // bytes, but the rid is cached for its retry all the same.
  const auto complete = [&](Pending& p) {
    const ProtocolReply reply = protocol.finish(p.req);
    if (p.span != 0) {
      obs::Event ev = obs::make_span(
          obs::Severity::Info, "server.request", "service",
          obs::mono_now() - p.req.framed,
          {{"client", p.client},
           {"bytes_in", static_cast<std::uint64_t>(p.req.bytes_in)},
           {"bytes_out", static_cast<std::uint64_t>(reply.line.size())}});
      ev.span_id = p.span;
      obs::emit(ev);
    }
    if (Client* c = client_by_id(p.client)) {
      c->outbuf += reply.line;
      c->outbuf += '\n';
    }
    if (reply.shutdown) stopping = true;
  };

  // Begin `c`'s framed lines in order until one has to wait: for the
  // connection's own op, or (held) for its session's or rid's.
  const auto dispatch = [&](Client& c) {
    while (!stopping && !c.running && !c.closing && !c.lines.empty()) {
      Line& line = c.lines.front();
      if (!c.held) {
        if (line.oversized) {
          if (telemetry) wire.lines_rejected->add(1);
          c.outbuf += oversized_reply(opt.max_line_bytes);
          c.closing = true;  // deliver the verdict, then hang up
          c.lines.clear();
          return;
        }
        if (opt.client_rate_limit > 0.0) {
          // Token bucket per connection: sustained rate above the limit
          // drains it, and the typed retry_after tells the client
          // exactly how long until the next token. The check sits
          // *before* the protocol so an abusive client cannot consume
          // op counters or replay-cache slots.
          const double now = obs::mono_now();
          c.tokens = std::min(
              opt.client_rate_burst,
              c.tokens + (now - c.last_refill) * opt.client_rate_limit);
          c.last_refill = now;
          if (c.tokens < 1.0) {
            if (telemetry) wire.requests_throttled->add(1);
            c.outbuf +=
                throttle_reply((1.0 - c.tokens) / opt.client_rate_limit);
            c.outbuf += '\n';
            c.lines.pop_front();
            continue;
          }
          c.tokens -= 1.0;
        }
        c.held = ServiceProtocol::parse(line.text, line.framed);
      }
      const ProtocolRequest& head = *c.held;
      if ((!head.session.empty() && busy_sessions.count(head.session)) ||
          (!head.rid.empty() && busy_rids.count(head.rid)))
        return;  // re-dispatched when that op completes
      Pending p{c.id, 0, std::move(*c.held)};
      c.held.reset();
      c.lines.pop_front();
      // The wire-receive span: parent of the protocol's op span, so the
      // trace tree reads request -> op -> session -> eval.
      if (obs::enabled(obs::Severity::Info)) p.span = next_span_id();
      std::optional<SpanScope> scope;
      if (p.span != 0) scope.emplace(SpanContext{p.span});
      // begin() answers a replay, or a line that failed to parse.
      if (protocol.begin(p.req) && !runs_inline(p.req, svc)) {
        c.running = true;
        if (!p.req.session.empty()) busy_sessions.insert(p.req.session);
        if (!p.req.rid.empty()) busy_rids.insert(p.req.rid);
        set_in_flight(++running);
        // submit() carries the request span to the worker.
        tasks.push_back(ThreadPool::global().submit(
            [&protocol, &completions, p = std::move(p)]() mutable {
              protocol.execute(p.req);
              completions.push(std::move(p));
            }));
        continue;
      }
      if (!p.req.answered) {
        set_in_flight(running + 1);
        protocol.execute(p.req);
        set_in_flight(running);
      }
      scope.reset();  // the wire span is not its own parent
      complete(p);
    }
  };

  // Finish the ops the pool handed back, then let waiting lines go.
  const auto drain_completions = [&] {
    std::vector<Pending> done = completions.take();
    if (done.empty()) return;
    std::erase_if(tasks, [](const std::future<void>& f) {
      return f.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    for (Pending& p : done) {
      if (Client* c = client_by_id(p.client)) c->running = false;
      busy_sessions.erase(p.req.session);
      busy_rids.erase(p.req.rid);
      set_in_flight(--running);
      complete(p);
    }
    for (Client& c : clients) dispatch(c);
  };

  const auto teardown = [&] {
    // Both exits: begin nothing more, let the running ops finish and
    // deliver their replies (one lost at SIGTERM forces the client into
    // a retry the restarted daemon must replay — correct, but avoidable
    // wire traffic). Only then checkpoint: a session whose open was
    // running is resumable too.
    stopping = true;
    // Every task pushed its completion before its future became ready.
    for (const std::future<void>& f : tasks) f.wait();
    drain_completions();
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

  while (!stopping) {
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
        for (const std::string& id :
             svc.reclaim_idle(opt.lease_seconds, busy_sessions)) {
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
    fds.push_back({completions.fd(), POLLIN, 0});
    for (const Client& c : clients) {
      // Read only from a connection with nothing waiting: one with an op
      // running or a line held is left to the kernel's backpressure.
      const bool idle =
          !c.running && !c.held && c.lines.empty() && !c.closing;
      fds.push_back({c.fd,
                     static_cast<short>((idle ? POLLIN : 0) |
                                        (c.outbuf.empty() ? 0 : POLLOUT)),
                     0});
    }
    // Short timeout so the cancel token is observed promptly even when
    // the socket is idle.
    const double poll_t0 = telemetry ? obs::mono_now() : 0.0;
    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (telemetry) wire.poll_wait->observe(obs::mono_now() - poll_t0);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal delivery; loop re-checks
      const std::string why = std::strerror(errno);
      teardown();
      throw Error("poll(): " + why);
    }
    if (ready == 0) continue;

    if (fds[1].revents & POLLIN) drain_completions();

    // Stage accepts until after the per-client loop: `fds[i + 2]` mirrors
    // the client list the poll set was built from, so appending to
    // `clients` here would make the loop read past the end of `fds`.
    std::vector<Client> accepted;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        Client c;
        c.id = ++next_client;
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
      const pollfd& p = fds[i + 2];
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        dead[i] = true;
        continue;
      }
      if (p.revents & POLLIN) {
        char buf[4096];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          if (!(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                          errno == EINTR))) {
            // A peer that only shut down its side still reads: deliver
            // what finished before its end of stream arrived.
            flush_client(c, telemetry ? wire.bytes_out : nullptr);
            dead[i] = true;
          }
        } else {
          if (telemetry) wire.bytes_in->add(static_cast<std::uint64_t>(n));
          c.inbuf.append(buf, static_cast<std::size_t>(n));
          const double framed = telemetry || obs::enabled(obs::Severity::Info)
                                    ? obs::mono_now()
                                    : -1.0;
          std::size_t nl;
          while ((nl = c.inbuf.find('\n')) != std::string::npos) {
            std::string line = c.inbuf.substr(0, nl);
            c.inbuf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            if (line.empty()) continue;
            if (line.size() > opt.max_line_bytes) {
              c.lines.push_back({"", framed, true});
              c.inbuf.clear();
              break;
            }
            c.lines.push_back({std::move(line), framed, false});
          }
          if (c.inbuf.size() > opt.max_line_bytes) {
            // A line that can no longer fit even before its newline
            // arrives: reject it now rather than buffering unboundedly.
            c.inbuf.clear();
            c.lines.push_back({"", framed, true});
          }
          dispatch(c);
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
        // A running op still finishes; its reply finds no connection.
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

    if (stopping) {
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
