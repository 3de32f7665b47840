// The exactly-once half of the protocol: rid replay semantics, counter
// discipline (replays never double-count executions), cache bounds, and
// the persisted protocol state that carries all of it across a daemon
// restart.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <filesystem>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"

namespace portatune::service {
namespace {

using obs::json::Value;

std::string pid_suffix() {
#if defined(__unix__) || defined(__APPLE__)
  return std::to_string(::getpid());
#else
  return "0";
#endif
}

class ProtocolRidTest : public testing::Test {
 protected:
  ProtocolRidTest() : redirect_(registry_) {
    TuningServiceOptions so;
    so.data_dir = testing::TempDir() + "portatune_rid_" + pid_suffix();
    std::filesystem::remove_all(so.data_dir);
    svc_ = std::make_unique<TuningService>(so);
  }

  ServiceProtocol& proto(ProtocolOptions opt = {}) {
    if (!proto_) proto_ = std::make_unique<ServiceProtocol>(*svc_, opt);
    return *proto_;
  }

  Value call(const std::string& line) {
    return Value::parse(proto().handle_line(line).line);
  }

  std::uint64_t counter(const std::string& name) {
    return registry_.counter(name).value();
  }

  static std::string open_line(const std::string& id,
                               const std::string& rid = "") {
    std::string line = R"({"op":"open","id":")" + id +
                       R"(","problem":"LU","machine":"Westmere",)"
                       R"("max_evals":20,"seed":5)";
    if (!rid.empty()) line += R"(,"rid":")" + rid + "\"";
    return line + "}";
  }

  obs::MetricsRegistry registry_;
  obs::ScopedMetricsRedirect redirect_;
  std::unique_ptr<TuningService> svc_;
  std::unique_ptr<ServiceProtocol> proto_;
};

TEST_F(ProtocolRidTest, RetriedRidReplaysInsteadOfReexecuting) {
  ASSERT_TRUE(call(open_line("s1", "cli:1")).at("ok").as_bool());
  const std::string step =
      R"({"op":"step","id":"s1","n":3,"rid":"cli:2"})";
  const std::string first = proto().handle_line(step).line;
  const std::string retried = proto().handle_line(step).line;
  // Bit-identical replay: the retry sees exactly what the lost reply
  // said — same evals total, same best. Re-execution would have stepped
  // the session three more draws and forked the CRN trace.
  EXPECT_EQ(first, retried);
  EXPECT_EQ(Value::parse(retried).at("evals").as_number(), 3.0);
  // Counter discipline: 3 requests handled, but only one step
  // *execution*; the retry lands under server.rid.replays.
  EXPECT_EQ(counter("server.op.step.count"), 1u);
  EXPECT_EQ(counter("server.rid.replays"), 1u);
  EXPECT_EQ(counter("server.requests"), 3u);
  // A fresh rid executes again.
  ASSERT_TRUE(
      call(R"({"op":"step","id":"s1","n":3,"rid":"cli:3"})")
          .at("ok")
          .as_bool());
  EXPECT_EQ(counter("server.op.step.count"), 2u);
}

TEST_F(ProtocolRidTest, ErrorRepliesReplayIdentically) {
  const std::string bad =
      R"({"op":"step","id":"nope","n":1,"rid":"cli:9"})";
  const std::string first = proto().handle_line(bad).line;
  EXPECT_FALSE(Value::parse(first).at("ok").as_bool());
  const std::string retried = proto().handle_line(bad).line;
  EXPECT_EQ(first, retried);
  // The failure executed (and was counted) once; the retry replayed.
  EXPECT_EQ(counter("server.op.step.errors"), 1u);
  EXPECT_EQ(counter("server.requests_failed"), 1u);
  EXPECT_EQ(counter("server.rid.replays"), 1u);
}

TEST_F(ProtocolRidTest, NonMutatingOpsIgnoreRids) {
  const std::string status = R"({"op":"status","rid":"cli:1"})";
  ASSERT_TRUE(call(status).at("ok").as_bool());
  ASSERT_TRUE(call(status).at("ok").as_bool());
  // Both executed: reads are idempotent anyway, and a retried shutdown
  // must still shut down.
  EXPECT_EQ(counter("server.op.status.count"), 2u);
  EXPECT_EQ(counter("server.rid.replays"), 0u);
  EXPECT_EQ(proto().replay_cache_size(), 0u);
}

TEST_F(ProtocolRidTest, NonStringRidIsATypedError) {
  const Value reply = call(R"({"op":"checkpoint","id":"x","rid":7})");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("rid"), std::string::npos);
}

TEST_F(ProtocolRidTest, PerClientCacheIsBoundedFifo) {
  ProtocolOptions opt;
  opt.replay_cache_per_client = 2;
  proto(opt);
  ASSERT_TRUE(call(open_line("s1", "c:1")).at("ok").as_bool());
  for (int i = 2; i <= 4; ++i)
    ASSERT_TRUE(call(R"({"op":"suggest","id":"s1","n":1,"rid":"c:)" +
                     std::to_string(i) + "\"}")
                    .at("ok")
                    .as_bool());
  EXPECT_EQ(proto().replay_cache_size(), 2u);
  // c:1 and c:2 were evicted (FIFO), so a retry of c:2 re-executes; c:4
  // is still cached and replays.
  call(R"({"op":"suggest","id":"s1","n":1,"rid":"c:2"})");
  EXPECT_EQ(counter("server.rid.replays"), 0u);
  call(R"({"op":"suggest","id":"s1","n":1,"rid":"c:4"})");
  EXPECT_EQ(counter("server.rid.replays"), 1u);
}

TEST_F(ProtocolRidTest, LruClientEvictionBoundsTotalState) {
  ProtocolOptions opt;
  opt.replay_cache_per_client = 8;
  opt.replay_cache_clients = 2;
  proto(opt);
  ASSERT_TRUE(call(open_line("s1", "a:1")).at("ok").as_bool());
  const auto suggest = [&](const std::string& rid) {
    return call(R"({"op":"suggest","id":"s1","n":1,"rid":")" + rid +
                "\"}");
  };
  ASSERT_TRUE(suggest("b:1").at("ok").as_bool());
  // Touch a so b is the LRU client, then bring in c: b gets evicted.
  suggest("a:1");
  EXPECT_EQ(counter("server.rid.replays"), 1u);
  ASSERT_TRUE(suggest("c:1").at("ok").as_bool());
  suggest("b:1");  // re-executes: b's cache is gone
  EXPECT_EQ(counter("server.rid.replays"), 1u);
  // Re-inserting b displaced the next LRU (a); c, touched most recently
  // before that, still replays. Total state never exceeded two clients.
  suggest("c:1");
  EXPECT_EQ(counter("server.rid.replays"), 2u);
}

TEST_F(ProtocolRidTest, StateRoundTripsAcrossRestart) {
  const std::string state_path =
      testing::TempDir() + "portatune_rid_state_" + pid_suffix() + ".json";
  std::filesystem::remove(state_path);
  ProtocolOptions opt;
  opt.state_path = state_path;
  proto(opt);
  ASSERT_TRUE(call(open_line("s1", "cli:1")).at("ok").as_bool());
  const std::string step =
      R"({"op":"step","id":"s1","n":2,"rid":"cli:2"})";
  const std::string first = proto().handle_line(step).line;
  const std::uint64_t requests_before = proto().requests_handled();
  proto().persist_state();

  // "Restart": fresh registry contents would normally start at zero, but
  // load_state() adds the persisted totals back, and the replay cache
  // answers the rid that straddled the restart without re-executing.
  proto_.reset();
  proto(opt);
  EXPECT_EQ(proto().requests_handled(), requests_before);
  EXPECT_EQ(counter("server.op.step.count"), 2u);  // 1 live + 1 restored
  const std::string replayed = proto().handle_line(step).line;
  EXPECT_EQ(first, replayed);
  EXPECT_EQ(counter("server.rid.replays"), 1u);
}

TEST_F(ProtocolRidTest, TornStateFileDegradesToEmptyCache) {
  const std::string state_path =
      testing::TempDir() + "portatune_rid_torn_" + pid_suffix() + ".json";
  atomic_write_file(state_path, "{\"portatune_protocol_state\":1,");
  ProtocolOptions opt;
  opt.state_path = state_path;
  proto(opt);
  EXPECT_EQ(counter("server.state_restore_failures"), 1u);
  // The daemon still serves.
  EXPECT_TRUE(call(R"({"op":"status"})").at("ok").as_bool());
  EXPECT_EQ(proto().replay_cache_size(), 0u);
}

TEST_F(ProtocolRidTest, OutOfRangeStateNumbersDegradeToEmptyCache) {
  // A forged count is not cast out of range: the restore fails the way a
  // torn file's does, with an empty replay cache and a counted failure.
  const std::string state_path =
      testing::TempDir() + "portatune_rid_forged_" + pid_suffix() + ".json";
  std::filesystem::remove(state_path);
  ProtocolOptions opt;
  opt.state_path = state_path;
  proto(opt);
  ASSERT_TRUE(call(open_line("s1", "cli:1")).at("ok").as_bool());
  proto().persist_state();
  const std::string good = read_file(state_path);
  const auto restore = [&](const std::string& text) {
    atomic_write_file(state_path, text);
    proto_.reset();
    proto(opt);
    return proto().replay_cache_size();
  };
  const auto forge = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
  };
  EXPECT_EQ(restore(good), 1u);  // the open's reply
  EXPECT_EQ(counter("server.state_restore_failures"), 0u);
  EXPECT_EQ(restore(forge("\"requests\":1,", "\"requests\":-1,")), 0u);
  EXPECT_EQ(counter("server.state_restore_failures"), 1u);
  EXPECT_EQ(restore(forge("\"server.op.open.count\":1,",
                          "\"server.op.open.count\":1e300,")),
            0u);
  EXPECT_EQ(counter("server.state_restore_failures"), 2u);
}

TEST_F(ProtocolRidTest, EvictedSessionAutoRestoresOnNextOp) {
  ASSERT_TRUE(call(open_line("lease1")).at("ok").as_bool());
  ASSERT_TRUE(
      call(R"({"op":"step","id":"lease1","n":4})").at("ok").as_bool());
  // Reclaim with a zero lease: checkpoint + evict, like the serve loop's
  // lease sweep on an idle session.
  const auto reclaimed = svc_->reclaim_idle(0.0);
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "lease1");
  EXPECT_EQ(svc_->find("lease1"), nullptr);
  // The next op finds the checkpoint and restores transparently, and the
  // restored session continues from where the lease cut it off.
  const Value stepped = call(R"({"op":"step","id":"lease1","n":1})");
  ASSERT_TRUE(stepped.at("ok").as_bool());
  EXPECT_EQ(stepped.at("evals").as_number(), 5.0);
  EXPECT_EQ(counter("service.sessions_restored"), 1u);
}

TEST_F(ProtocolRidTest, FreshSessionsOutliveTheirLease) {
  ASSERT_TRUE(call(open_line("young")).at("ok").as_bool());
  // A generous lease reclaims nothing from a just-touched session.
  EXPECT_TRUE(svc_->reclaim_idle(3600.0).empty());
  EXPECT_NE(svc_->find("young"), nullptr);
}

}  // namespace
}  // namespace portatune::service
