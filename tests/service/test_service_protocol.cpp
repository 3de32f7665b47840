// ServiceProtocol: the line-delimited JSON surface of the tuning
// service, driven directly (no socket). Covers the full op set, the
// index-array config representation, the never-throws error contract,
// and the request-observability layer: per-op instruments, the `stats`
// op, `service.op_error` events, and the wire->session->eval span chain.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace portatune::service {
namespace {

/// Per-process path suffix: under `ctest -j` every test runs in its own
/// process, so pid-unique dirs keep concurrent tests out of each other's
/// data.
std::string pid_suffix() {
#if defined(__unix__) || defined(__APPLE__)
  return std::to_string(::getpid());
#else
  return "0";
#endif
}

class ServiceProtocolTest : public testing::Test {
 protected:
  ServiceProtocolTest() : svc_(make_options()), proto_(svc_) {}

  static TuningServiceOptions make_options() {
    TuningServiceOptions opt;
    opt.data_dir = testing::TempDir() + "portatune_proto_" + pid_suffix();
    std::filesystem::remove_all(opt.data_dir);
    return opt;
  }

  /// Send one line, parse the JSON reply.
  obs::json::Value call(const std::string& line, bool* shutdown = nullptr) {
    const ProtocolReply reply = proto_.handle_line(line);
    if (shutdown != nullptr) *shutdown = reply.shutdown;
    return obs::json::Value::parse(reply.line);
  }

  obs::json::Value open_session(const std::string& id) {
    return call(R"({"op":"open","id":")" + id +
                R"(","problem":"LU","machine":"Westmere","max_evals":20,)"
                R"("seed":5})");
  }

  TuningService svc_;
  ServiceProtocol proto_;
};

TEST_F(ServiceProtocolTest, OpenStepCloseRoundTrip) {
  const auto opened = open_session("s1");
  EXPECT_TRUE(opened.at("ok").as_bool());
  EXPECT_EQ(opened.at("id").as_string(), "s1");
  EXPECT_FALSE(opened.at("warm").as_bool());  // empty store

  const auto stepped = call(R"({"op":"step","id":"s1","n":10})");
  ASSERT_TRUE(stepped.at("ok").as_bool());
  EXPECT_GT(stepped.at("evaluated").as_number(), 0.0);
  EXPECT_GT(stepped.at("best_seconds").as_number(), 0.0);
  EXPECT_EQ(stepped.at("evals").as_number(),
            stepped.at("evaluated").as_number());

  const auto checkpointed = call(R"({"op":"checkpoint","id":"s1"})");
  EXPECT_TRUE(checkpointed.at("ok").as_bool());

  const auto closed = call(R"({"op":"close","id":"s1"})");
  ASSERT_TRUE(closed.at("ok").as_bool());
  EXPECT_GT(closed.at("evals").as_number(), 0.0);
  EXPECT_GT(closed.at("best_seconds").as_number(), 0.0);

  // The session is gone for further ops, but the error is a reply, not
  // a dropped connection.
  const auto after = call(R"({"op":"step","id":"s1","n":1})");
  EXPECT_FALSE(after.at("ok").as_bool());
  EXPECT_FALSE(after.at("error").as_string().empty());
}

TEST_F(ServiceProtocolTest, SuggestAndReportUseIndexArrays) {
  ASSERT_TRUE(open_session("ext").at("ok").as_bool());

  const auto suggested = call(R"({"op":"suggest","id":"ext","n":2})");
  ASSERT_TRUE(suggested.at("ok").as_bool());
  const auto& configs = suggested.at("configs").as_array();
  ASSERT_EQ(configs.size(), 2u);
  ASSERT_TRUE(configs[0].is_array());

  // Echo the first candidate back with an externally measured time.
  const auto report = call(
      std::string(R"({"op":"report","id":"ext","config":)") +
      configs[0].dump() + R"(,"seconds":0.5})");
  EXPECT_TRUE(report.at("ok").as_bool());

  // A config of the wrong arity is rejected with a reply, not a throw.
  const auto bad = call(
      R"({"op":"report","id":"ext","config":[0],"seconds":0.5})");
  EXPECT_FALSE(bad.at("ok").as_bool());
}

TEST_F(ServiceProtocolTest, NonFiniteReportIsRejectedAndTheSessionResumes) {
  ASSERT_TRUE(open_session("inf").at("ok").as_bool());
  const auto suggested = call(R"({"op":"suggest","id":"inf","n":1})");
  ASSERT_TRUE(suggested.at("ok").as_bool());
  const std::string config = suggested.at("configs").as_array()[0].dump();

  // The JSON parser reads 1e999 as +inf: an error reply, not a trace row.
  const auto rejected = call(R"({"op":"report","id":"inf","config":)" +
                             config + R"(,"seconds":1e999})");
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_NE(rejected.at("error").as_string().find("finite"),
            std::string::npos);
  // The suggestion is still outstanding and takes a finite report.
  EXPECT_TRUE(call(R"({"op":"report","id":"inf","config":)" + config +
                   R"(,"seconds":0.5})")
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(call(R"({"op":"checkpoint","id":"inf"})").at("ok").as_bool());

  // A restarted daemon over the same data dir resumes from that
  // checkpoint.
  TuningServiceOptions opt;
  opt.data_dir = testing::TempDir() + "portatune_proto_" + pid_suffix();
  TuningService revived(opt);
  ServiceProtocol proto(revived);
  const auto resumed = obs::json::Value::parse(
      proto.handle_line(R"({"op":"resume","id":"inf"})").line);
  ASSERT_TRUE(resumed.at("ok").as_bool()) << resumed.dump();
  EXPECT_EQ(revived.find("inf")->trace_snapshot().size(), 1u);
}

TEST_F(ServiceProtocolTest, StatusReportsSessionsCacheAndStore) {
  ASSERT_TRUE(open_session("s1").at("ok").as_bool());
  ASSERT_TRUE(call(R"({"op":"step","id":"s1","n":5})").at("ok").as_bool());

  const auto status = call(R"({"op":"status"})");
  ASSERT_TRUE(status.at("ok").as_bool());
  const auto& sessions = status.at("sessions").as_array();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].at("id").as_string(), "s1");
  EXPECT_EQ(sessions[0].at("problem").as_string(), "LU");
  EXPECT_EQ(sessions[0].at("machine").as_string(), "Westmere");
  EXPECT_GT(sessions[0].at("evals").as_number(), 0.0);
  // The fingerprint probes at open were cache misses at minimum.
  EXPECT_GT(status.at("cache").at("misses").as_number(), 0.0);
  EXPECT_EQ(status.at("store").at("entries").as_number(), 0.0);
}

TEST_F(ServiceProtocolTest, ErrorsAreRepliesNeverThrows) {
  for (const char* line : {
           "this is not json",
           R"({"no_op_member":true})",
           R"({"op":"frobnicate"})",
           R"({"op":"step","id":"no-such-session"})",
           R"({"op":"open","id":"x"})",             // missing problem/machine
           R"({"op":"open","id":"../evil","problem":"LU","machine":"Westmere"})",
           R"({"op":"resume","id":"never-checkpointed"})",
       }) {
    bool shutdown = true;
    const auto reply = call(line, &shutdown);
    EXPECT_FALSE(reply.at("ok").as_bool()) << line;
    EXPECT_FALSE(reply.at("error").as_string().empty()) << line;
    EXPECT_FALSE(shutdown) << line;
  }
}

TEST_F(ServiceProtocolTest, OpenRejectsOutOfRangeNumbers) {
  // Each of these once reached an unchecked integer cast: -5 and 1e300
  // are out of range (undefined behaviour), 2.5 truncated to 2, and 2e6
  // built a pool large enough to hold the poll thread for seconds. 1e18
  // evaluations would let one `suggest` draw until memory runs out, and
  // 1e6 evaluation threads would be started on the poll thread; both are
  // rejected before any pool exists.
  const std::pair<const char*, const char*> hostile[] = {
      {R"("max_evals":-5)", "max_evals"},
      {R"("pool_size":2.5)", "pool_size"},
      {R"("pool_size":1e300)", "pool_size"},
      {R"("pool_size":2e6)", "pool_size"},
      {R"("seed":1.8446744073709552e19)", "seed"},
      {R"("eval_threads":-1)", "eval_threads"},
      {R"("max_evals":1e18)", "max_evals"},
      {R"("eval_threads":1e6)", "eval_threads"},
  };
  for (const auto& [member, field] : hostile) {
    const auto reply =
        call(std::string(R"({"op":"open","id":"h","problem":"LU",)"
                         R"("machine":"Westmere",)") +
             member + "}");
    EXPECT_FALSE(reply.at("ok").as_bool()) << member;
    const std::string error =
        reply.find("error") != nullptr ? reply.at("error").as_string() : "";
    EXPECT_NE(error.find(field), std::string::npos) << member << ": " << error;
  }
  // The daemon still serves, and the id was never taken.
  EXPECT_TRUE(open_session("h").at("ok").as_bool());
  // A value index beyond int range is rejected before any cast.
  const auto report = call(
      R"({"op":"report","id":"h","config":[1e300,0,0,0,0,0,0,0,0],)"
      R"("seconds":1})");
  EXPECT_FALSE(report.at("ok").as_bool());
  EXPECT_NE(report.at("error").as_string().find("config"), std::string::npos);
}

TEST_F(ServiceProtocolTest, ShutdownSetsTheFlag) {
  bool shutdown = false;
  const auto reply = call(R"({"op":"shutdown"})", &shutdown);
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(shutdown);
}

// ---------------------------------------------------------------------------
// Request observability. These fixtures build their own registry/sink
// *before* the protocol so the instruments bind to the redirected
// registry (the protocol binds at construction, like ObservedEvaluator).

class ServiceProtocolTelemetryTest : public testing::Test {
 protected:
  ServiceProtocolTelemetryTest() : redirect_(registry_) {
    TuningServiceOptions opt;
    opt.data_dir =
        testing::TempDir() + "portatune_proto_telemetry_" + pid_suffix();
    std::filesystem::remove_all(opt.data_dir);
    svc_ = std::make_unique<TuningService>(opt);
  }

  obs::json::Value call(ServiceProtocol& proto, const std::string& line) {
    return obs::json::Value::parse(proto.handle_line(line).line);
  }

  std::uint64_t counter(const std::string& name) {
    return registry_.counter(name).value();
  }

  static const obs::Field* field(const obs::Event& e, const char* key) {
    for (const obs::Field& f : e.fields)
      if (f.key == key) return &f;
    return nullptr;
  }

  obs::MetricsRegistry registry_;
  obs::ScopedMetricsRedirect redirect_;
  std::unique_ptr<TuningService> svc_;
};

TEST_F(ServiceProtocolTelemetryTest, PerOpInstrumentsCountEveryRequest) {
  ServiceProtocol proto(*svc_);
  ASSERT_TRUE(call(proto,
                   R"({"op":"open","id":"t1","problem":"LU",)"
                   R"("machine":"Westmere","max_evals":20,"seed":5})")
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(
      call(proto, R"({"op":"step","id":"t1","n":3})").at("ok").as_bool());
  ASSERT_TRUE(
      call(proto, R"({"op":"step","id":"t1","n":3})").at("ok").as_bool());
  EXPECT_FALSE(call(proto, "not json at all").at("ok").as_bool());
  EXPECT_FALSE(call(proto, R"({"op":"frobnicate"})").at("ok").as_bool());
  EXPECT_FALSE(call(proto, R"({"op":"step","id":"ghost"})")
                   .at("ok")
                   .as_bool());

  EXPECT_EQ(counter("server.op.open.count"), 1u);
  EXPECT_EQ(counter("server.op.step.count"), 3u);  // 2 ok + 1 unknown id
  EXPECT_EQ(counter("server.op.step.errors"), 1u);
  EXPECT_EQ(counter("server.op.invalid.count"), 2u);
  EXPECT_EQ(counter("server.op.invalid.errors"), 2u);
  EXPECT_EQ(counter("server.requests"), 6u);
  EXPECT_EQ(counter("server.requests_failed"), 3u);
  EXPECT_EQ(proto.requests_handled(), 6u);
  // Latency histograms saw exactly the per-op counts.
  EXPECT_EQ(registry_.histogram("server.op.step.latency").count(), 3u);
  EXPECT_EQ(registry_.histogram("server.op.open.latency").count(), 1u);
}

TEST_F(ServiceProtocolTelemetryTest, StatsOpReturnsSnapshotOverTheWire) {
  ServiceProtocol proto(*svc_);
  ASSERT_TRUE(call(proto,
                   R"({"op":"open","id":"t1","problem":"LU",)"
                   R"("machine":"Westmere","max_evals":20,"seed":5})")
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(
      call(proto, R"({"op":"step","id":"t1","n":2})").at("ok").as_bool());

  const auto stats = call(proto, R"({"op":"stats"})");
  ASSERT_TRUE(stats.at("ok").as_bool());
  const auto& server = stats.at("server");
  EXPECT_GT(server.at("pid").as_number(), 0.0);
  EXPECT_GT(server.at("uptime_seconds").as_number(), 0.0);
  EXPECT_EQ(server.at("requests").as_number(), 3.0);  // incl. this stats
  EXPECT_EQ(server.at("sessions_open").as_number(), 1.0);
  const auto& metrics = stats.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("server.op.step.count").as_number(),
            1.0);
  const auto& step_latency =
      metrics.at("histograms").at("server.op.step.latency");
  EXPECT_EQ(step_latency.at("count").as_number(), 1.0);
  EXPECT_GE(step_latency.at("p99").as_number(),
            step_latency.at("p50").as_number());
  // Compact wire form: no bucket arrays.
  EXPECT_EQ(step_latency.find("buckets"), nullptr);
}

TEST_F(ServiceProtocolTelemetryTest, DormantWithTelemetryOffAndNoSink) {
  ProtocolOptions opt;
  opt.telemetry = false;
  ServiceProtocol proto(*svc_, opt);
  EXPECT_TRUE(call(proto, R"({"op":"status"})").at("ok").as_bool());
  EXPECT_FALSE(call(proto, "garbage").at("ok").as_bool());
  // No instrument was created, let alone updated. (publish_metrics in
  // the status op still writes service gauges; the *request* layer must
  // have stayed silent.)
  const auto snap = registry_.snapshot();
  for (const auto& [name, v] : snap.counters)
    EXPECT_EQ(name.rfind("server.", 0), std::string::npos) << name;
  EXPECT_EQ(proto.requests_handled(), 2u);
}

TEST_F(ServiceProtocolTelemetryTest, OpErrorsEmitWarnEvents) {
  obs::MemorySink sink;
  obs::ScopedSinkRedirect sink_redirect(&sink, obs::Severity::Warn);
  ServiceProtocol proto(*svc_);
  EXPECT_FALSE(call(proto, R"({"op":"step","id":"ghost"})")
                   .at("ok")
                   .as_bool());
  EXPECT_FALSE(call(proto, "garbage").at("ok").as_bool());

  const auto events = sink.events();
  std::vector<obs::Event> errors;
  std::copy_if(events.begin(), events.end(), std::back_inserter(errors),
               [](const obs::Event& e) { return e.name == "service.op_error"; });
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].severity, obs::Severity::Warn);
  ASSERT_NE(field(errors[0], "op"), nullptr);
  EXPECT_EQ(field(errors[0], "op")->value, "step");
  EXPECT_EQ(field(errors[0], "session")->value, "ghost");
  EXPECT_NE(field(errors[0], "error")->value.find("ghost"),
            std::string::npos);
  EXPECT_EQ(field(errors[1], "op")->value, "invalid");
}

TEST_F(ServiceProtocolTelemetryTest, RequestSpansChainWireToEval) {
  obs::MemorySink sink;
  obs::ScopedSinkRedirect sink_redirect(&sink, obs::Severity::Debug);
  ServiceProtocol proto(*svc_);
  ASSERT_TRUE(call(proto,
                   R"({"op":"open","id":"t1","problem":"LU",)"
                   R"("machine":"Westmere","max_evals":20,"seed":5})")
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(
      call(proto, R"({"op":"step","id":"t1","n":4})").at("ok").as_bool());

  const auto events = sink.events();
  std::map<std::uint64_t, const obs::Event*> by_span;
  for (const obs::Event& e : events)
    if (e.span_id != 0) by_span.emplace(e.span_id, &e);

  // The step request produced a server.op.step span...
  const auto step_span = std::find_if(
      events.begin(), events.end(),
      [](const obs::Event& e) { return e.name == "server.op.step"; });
  ASSERT_NE(step_span, events.end());
  EXPECT_GE(step_span->duration_seconds, 0.0);
  ASSERT_NE(field(*step_span, "req"), nullptr);

  // ...the session op span is its child...
  const auto session_span = std::find_if(
      events.begin(), events.end(),
      [](const obs::Event& e) { return e.name == "session.step"; });
  ASSERT_NE(session_span, events.end());
  EXPECT_EQ(session_span->parent_span_id, step_span->span_id);

  // ...and every evaluation the step fanned out is a descendant of the
  // request: walking parent links from any eval reaches server.op.step.
  std::size_t evals = 0, chained = 0;
  for (const obs::Event& e : events) {
    if (e.name != "eval") continue;
    ++evals;
    std::uint64_t p = e.parent_span_id;
    while (p != 0) {
      const auto it = by_span.find(p);
      if (it == by_span.end()) break;
      if (it->second->name == "server.op.step" ||
          it->second->name == "server.op.open") {
        ++chained;
        break;
      }
      p = it->second->parent_span_id;
    }
  }
  EXPECT_GT(evals, 0u);
  EXPECT_EQ(chained, evals) << "every eval must trace back to a request";
}

}  // namespace
}  // namespace portatune::service
