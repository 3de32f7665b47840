// serve_unix_socket under real traffic and real abuse: stats round trip,
// garbage/torn/oversized lines, disconnecting clients, the heartbeat
// file, and the two shutdown exits. UNIX-only (AF_UNIX transport); on
// other platforms the whole suite compiles away.
#if defined(__unix__) || defined(__APPLE__)

#include "service/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/resilient_client.hpp"
#include "support/cancellation.hpp"

namespace portatune::service {
namespace {

using obs::json::Value;

/// Spin until `pred` holds or ~5s pass; returns its final value. The
/// server loop runs in a background thread, so anything it maintains
/// (counters, the socket file, the heartbeat) is eventually consistent
/// from the test's point of view.
template <class Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class ServerTest : public testing::Test {
 protected:
  // Declaration order is load-bearing: the redirect must be installed
  // before the server thread binds its instruments, and torn down after
  // the thread joined.
  ServerTest() : redirect_(registry_) {}

  void start(ServeOptions opt = {}) {
    // Per-process paths: under `ctest -j` every test is its own process,
    // and shared names would let concurrent tests clobber each other's
    // data dir and socket.
    const std::string pid = std::to_string(::getpid());
    const std::string dir = testing::TempDir() + "portatune_server_" + pid;
    std::filesystem::remove_all(dir);
    TuningServiceOptions so;
    so.data_dir = dir;
    svc_ = std::make_unique<TuningService>(so);
    socket_path_ = testing::TempDir() + "pt_server_" + pid + ".sock";
    thread_ = std::thread([this, opt] {
      rc_ = serve_unix_socket(*svc_, socket_path_, cancel_.token(), opt);
    });
    ASSERT_TRUE(eventually(
        [&] { return std::filesystem::exists(socket_path_); }))
        << "server never bound " << socket_path_;
  }

  void TearDown() override {
    if (thread_.joinable()) {
      cancel_.request_cancel();
      thread_.join();
    }
  }

  std::uint64_t counter(const std::string& name) {
    return registry_.counter(name).value();
  }

  /// Raw connected AF_UNIX fd for the torn-line tests (ServiceClient
  /// can't send half a request on purpose).
  int raw_connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  obs::MetricsRegistry registry_;
  obs::ScopedMetricsRedirect redirect_;
  CancellationSource cancel_;
  std::unique_ptr<TuningService> svc_;
  std::string socket_path_;
  std::thread thread_;
  int rc_ = -1;
};

TEST_F(ServerTest, StatsRoundTripOverSocket) {
  start();
  ServiceClient client(socket_path_);
  const Value stats = Value::parse(client.call(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_GT(stats.at("server").at("pid").as_number(), 0.0);
  EXPECT_GE(stats.at("server").at("requests").as_number(), 1.0);
  // The wire instruments live in the snapshot the reply carries.
  const Value* counters = stats.at("metrics").find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("server.clients_accepted"), nullptr);
  EXPECT_GE(counters->at("server.op.stats.count").as_number(), 1.0);
  EXPECT_TRUE(eventually(
      [&] { return counter("server.clients_accepted") >= 1; }));
  EXPECT_GT(counter("server.bytes_in"), 0u);
  // bytes_out lands just *after* the reply hits the socket, so the
  // client can race ahead of the counter by a hair.
  EXPECT_TRUE(eventually([&] { return counter("server.bytes_out") > 0; }));
}

TEST_F(ServerTest, GarbageLineIsRejectedAndCounted) {
  start();
  ServiceClient client(socket_path_);
  const Value reply = Value::parse(client.call("complete garbage"));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_FALSE(reply.at("error").as_string().empty());
  // Same connection keeps working afterwards.
  EXPECT_TRUE(
      Value::parse(client.call(R"({"op":"status"})")).at("ok").as_bool());
  EXPECT_EQ(counter("server.op.invalid.count"), 1u);
  EXPECT_EQ(counter("server.op.invalid.errors"), 1u);
  EXPECT_EQ(counter("server.requests_failed"), 1u);
}

TEST_F(ServerTest, TornLineAndDisconnectLeaveServerServing) {
  start();
  // Half a request, then hang up mid-line.
  const int fd = raw_connect();
  const char torn[] = "{\"op\":\"sta";
  ASSERT_GT(::send(fd, torn, sizeof(torn) - 1, 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::close(fd);
  EXPECT_TRUE(eventually(
      [&] { return counter("server.clients_disconnected") >= 1; }));
  // The torn fragment never became a request...
  EXPECT_EQ(counter("server.op.invalid.count"), 0u);
  // ...and the server still answers new clients.
  ServiceClient client(socket_path_);
  EXPECT_TRUE(
      Value::parse(client.call(R"({"op":"status"})")).at("ok").as_bool());
}

TEST_F(ServerTest, DeeplyNestedLineGetsOneErrorReply) {
  start();
  ServiceClient client(socket_path_);
  // Under the 1 MiB line cap, but far deeper than the parser recurses.
  const Value reply = Value::parse(client.call(std::string(900000, '[')));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("nesting"), std::string::npos);
  // The daemon survived and the connection still serves.
  const Value stats = Value::parse(client.call(R"({"op":"stats"})"));
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(counter("server.requests_failed"), 1u);
}

TEST_F(ServerTest, OversizedLineGetsErrorReplyAndHangup) {
  ServeOptions opt;
  opt.max_line_bytes = 64;
  start(opt);
  ServiceClient client(socket_path_);
  const std::string huge =
      R"({"op":"status","padding":")" + std::string(200, 'x') + "\"}";
  const Value reply = Value::parse(client.call(huge));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("exceeds"),
            std::string::npos);
  EXPECT_TRUE(eventually(
      [&] { return counter("server.lines_rejected") >= 1; }));
  // The verdict was the connection's last word.
  EXPECT_THROW(client.call(R"({"op":"status"})"), Error);
  // An in-bounds client is unaffected.
  ServiceClient fine(socket_path_);
  EXPECT_TRUE(
      Value::parse(fine.call(R"({"op":"status"})")).at("ok").as_bool());
}

TEST_F(ServerTest, UnterminatedOversizedBufferIsRejectedToo) {
  ServeOptions opt;
  opt.max_line_bytes = 64;
  start(opt);
  // A line that outgrows the cap before any newline arrives: the server
  // must reject it *now*, not buffer until the writer deigns to finish.
  const int fd = raw_connect();
  const std::string flood(1024, 'y');
  ASSERT_GT(::send(fd, flood.data(), flood.size(), 0), 0);
  EXPECT_TRUE(eventually(
      [&] { return counter("server.lines_rejected") >= 1; }));
  char buf[512];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string(buf, static_cast<std::size_t>(n)).find("exceeds"),
            std::string::npos);
  ::close(fd);
}

TEST_F(ServerTest, ShutdownOpExitsZero) {
  start();
  const Value reply = Value::parse(
      call_unix_socket(socket_path_, R"({"op":"shutdown"})"));
  EXPECT_TRUE(reply.at("ok").as_bool());
  thread_.join();
  EXPECT_EQ(rc_, 0);
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

TEST_F(ServerTest, HeartbeatFileIsWrittenAndFinalized) {
  ServeOptions opt;
  opt.status_every_seconds = 0.05;
  opt.status_path = testing::TempDir() + "pt_server_status_" +
                    std::to_string(::getpid()) + ".json";
  std::filesystem::remove(opt.status_path);
  start(opt);
  ASSERT_TRUE(eventually(
      [&] { return std::filesystem::exists(opt.status_path); }));
  ServiceClient client(socket_path_);
  ASSERT_TRUE(
      Value::parse(client.call(R"({"op":"status"})")).at("ok").as_bool());
  ASSERT_TRUE(eventually([&] {
    std::ifstream in(opt.status_path);
    std::stringstream buf;
    buf << in.rdbuf();
    if (buf.str().empty()) return false;
    const Value status = Value::parse(buf.str());
    return status.at("schema").as_string() == "portatune_server_status" &&
           status.at("requests_total").as_number() >= 1.0;
  }));
  cancel_.request_cancel();
  thread_.join();
  EXPECT_EQ(rc_, 3);
  // The teardown wrote one final heartbeat with no clients left.
  std::ifstream in(opt.status_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const Value final_status = Value::parse(buf.str());
  EXPECT_EQ(final_status.at("clients_connected").as_number(), 0.0);
  EXPECT_GT(final_status.at("pid").as_number(), 0.0);
  EXPECT_NE(final_status.find("ops"), nullptr);
}

TEST_F(ServerTest, LargePayloadRoundTripsThroughServiceClient) {
  start();  // default 1 MiB line cap
  ServiceClient client(socket_path_);
  // Half a MiB in one request line: the client's send loop must survive
  // short writes (a Unix socket buffer is far smaller than this), and
  // the server must reassemble the line across many reads.
  const std::string huge = R"({"op":"status","padding":")" +
                           std::string(512 * 1024, 'x') + "\"}";
  const Value reply = Value::parse(client.call(huge));
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(eventually(
      [&] { return counter("server.bytes_in") >= huge.size(); }));
  // The connection is still healthy for normal-sized traffic.
  EXPECT_TRUE(
      Value::parse(client.call(R"({"op":"status"})")).at("ok").as_bool());
}

TEST_F(ServerTest, IdleSessionIsReclaimedThenTransparentlyRestored) {
  ServeOptions opt;
  opt.lease_seconds = 0.3;
  opt.lease_check_every_seconds = 0.05;
  start(opt);
  ServiceClient client(socket_path_);
  ASSERT_TRUE(Value::parse(client.call(
                              R"({"op":"open","id":"idle1","problem":"LU",)"
                              R"("machine":"Westmere","max_evals":30,)"
                              R"("seed":3})"))
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(
      Value::parse(client.call(R"({"op":"step","id":"idle1","n":4})"))
          .at("ok")
          .as_bool());
  // Idle past the lease: the sweep checkpoints and evicts the session.
  EXPECT_TRUE(eventually(
      [&] { return counter("server.sessions_reclaimed") >= 1; }));
  EXPECT_TRUE(eventually([&] { return svc_->find("idle1") == nullptr; }));
  // The next op on the same connection restores it from the checkpoint —
  // eviction is invisible to the client, and no progress was lost.
  const Value stepped =
      Value::parse(client.call(R"({"op":"step","id":"idle1","n":1})"));
  ASSERT_TRUE(stepped.at("ok").as_bool());
  EXPECT_EQ(stepped.at("evals").as_number(), 5.0);
  EXPECT_GE(counter("service.sessions_restored"), 1u);
}

TEST_F(ServerTest, OverBudgetRequestsGetTypedRetryAfter) {
  ServeOptions opt;
  opt.client_rate_limit = 5.0;
  opt.client_rate_burst = 2.0;
  start(opt);
  ServiceClient client(socket_path_);
  ASSERT_TRUE(
      Value::parse(client.call(R"({"op":"status"})")).at("ok").as_bool());
  ASSERT_TRUE(
      Value::parse(client.call(R"({"op":"status"})")).at("ok").as_bool());
  // Burst spent: the third immediate request is rejected with the typed
  // overload error, *without* reaching the protocol (no op counter).
  const Value throttled =
      Value::parse(client.call(R"({"op":"status"})"));
  EXPECT_FALSE(throttled.at("ok").as_bool());
  EXPECT_NE(throttled.at("error").as_string().find("rate limit"),
            std::string::npos);
  ASSERT_TRUE(throttled.at("retry_after").is_number());
  EXPECT_GT(throttled.at("retry_after").as_number(), 0.0);
  EXPECT_TRUE(eventually(
      [&] { return counter("server.requests_throttled") >= 1; }));
  EXPECT_EQ(counter("server.op.status.count"), 2u);
  // A ResilientClient rides the same limiter invisibly: it sleeps the
  // advertised retry_after and the call still succeeds.
  ResilientClient resilient(socket_path_);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(Value::parse(resilient.call(R"({"op":"status"})"))
                    .at("ok")
                    .as_bool());
  EXPECT_GE(resilient.stats().throttled, 1u);
}

TEST_F(ServerTest, ExactlyOnceSurvivesServerRestart) {
  const std::string state_path = testing::TempDir() + "pt_proto_state_" +
                                 std::to_string(::getpid()) + ".json";
  std::filesystem::remove(state_path);
  ServeOptions opt;
  opt.protocol.state_path = state_path;
  start(opt);
  ServiceClient first(socket_path_);
  ASSERT_TRUE(Value::parse(first.call(
                               R"({"op":"open","id":"r1","problem":"LU",)"
                               R"("machine":"Westmere","max_evals":30,)"
                               R"("seed":3,"rid":"t:1"})"))
                  .at("ok")
                  .as_bool());
  const std::string step_line =
      R"({"op":"step","id":"r1","n":2,"rid":"t:2"})";
  const std::string step_reply = first.call(step_line);
  ASSERT_TRUE(Value::parse(step_reply).at("ok").as_bool());

  // "SIGTERM": graceful shutdown persists the protocol state and
  // checkpoints the open session.
  cancel_.request_cancel();
  thread_.join();
  EXPECT_EQ(rc_, 3);
  ASSERT_TRUE(std::filesystem::exists(state_path));

  // Restart: a new service process on the same data dir + state file.
  TuningServiceOptions so;
  so.data_dir = svc_->store().dir().substr(
      0, svc_->store().dir().rfind("/store"));
  TuningService svc2(so);
  CancellationSource cancel2;
  std::thread thread2([&] {
    serve_unix_socket(svc2, socket_path_, cancel2.token(), opt);
  });
  ASSERT_TRUE(eventually(
      [&] { return std::filesystem::exists(socket_path_); }));

  // A retry of the rid that executed on the *old* daemon replays the
  // exact pre-restart reply — the cache crossed the restart.
  ResilientClient client(socket_path_);
  EXPECT_EQ(client.call(step_line), step_reply);
  EXPECT_TRUE(eventually(
      [&] { return counter("server.rid.replays") >= 1; }));
  // And a fresh step auto-restores the checkpointed session: 2 evals
  // before the restart + 2 now.
  const Value stepped = Value::parse(
      client.call(R"({"op":"step","id":"r1","n":2,"rid":"t:3"})"));
  ASSERT_TRUE(stepped.at("ok").as_bool());
  EXPECT_EQ(stepped.at("evals").as_number(), 4.0);
  // Counter continuity, replays excluded: 1 live execution before the
  // restart + 1 restored from the state file (both land in this test's
  // registry, which outlives the "restart") + 1 fresh execution.
  EXPECT_EQ(counter("server.op.step.count"), 3u);
  cancel2.request_cancel();
  thread2.join();
}

}  // namespace
}  // namespace portatune::service

#endif  // UNIX
