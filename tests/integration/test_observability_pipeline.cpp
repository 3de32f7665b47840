// End-to-end observability pipeline: run a small transfer experiment with
// every sink attached, then validate the emitted artifacts — JSONL event
// log, metrics snapshot, and Chrome trace — with the obs JSON parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "apps/registry.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_evaluator.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "tuner/experiment.hpp"
#include "tuner/faults.hpp"
#include "tuner/parallel.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"

namespace portatune {
namespace {

class ObservabilityPipeline : public ::testing::Test {
 protected:
  // One small LU transfer with the full decorator stack and all sinks.
  void run(obs::MemorySink& memory, const std::string& jsonl_path,
           obs::MetricsRegistry& registry,
           tuner::TransferExperimentResult& out) {
    obs::ScopedMetricsRedirect metrics_redirect(registry);
    obs::JsonlSink jsonl(jsonl_path);
    obs::TeeSink tee({&jsonl, &memory});
    obs::ScopedSinkRedirect sink_redirect(&tee, obs::Severity::Debug);

    auto source_backend = apps::make_simulated_evaluator("LU", "Westmere");
    auto target_backend =
        apps::make_simulated_evaluator("LU", "Sandybridge");
    obs::ObservedEvaluator source(*source_backend, "eval.source");
    obs::ObservedEvaluator target(*target_backend, "eval.target");

    tuner::ExperimentSettings s;
    s.max_evals = 25;
    s.pool_size = 400;
    out = tuner::run_transfer_experiment(source, target, s);
  }
};

TEST_F(ObservabilityPipeline, EmitsAValidatableEventStream) {
  const std::string jsonl_path = ::testing::TempDir() + "/pipeline.jsonl";
  obs::MemorySink memory;
  obs::MetricsRegistry registry;
  tuner::TransferExperimentResult result;
  run(memory, jsonl_path, registry, result);

  // The in-memory stream saw the whole experiment.
  ASSERT_GT(memory.size(), 0u);
  std::set<std::string> names;
  for (const auto& e : memory.events()) names.insert(e.name);
  // The fit/pruned/biased phases each produced a span...
  EXPECT_TRUE(names.count("phase.fit"));
  EXPECT_TRUE(names.count("phase.pruned"));
  EXPECT_TRUE(names.count("phase.biased"));
  EXPECT_TRUE(names.count("experiment.transfer"));
  // ...and every evaluation produced a per-attempt event.
  EXPECT_TRUE(names.count("eval.source"));
  EXPECT_TRUE(names.count("eval.target"));

  // Every JSONL line parses and carries the schema's required keys.
  std::ifstream in(jsonl_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto v = obs::json::Value::parse(line);
    for (const char* key : {"ts", "wall_us", "level", "name", "cat"})
      EXPECT_NE(v.find(key), nullptr) << "missing " << key << ": " << line;
    ++lines;
  }
  EXPECT_EQ(lines, memory.size());
  std::remove(jsonl_path.c_str());
}

TEST_F(ObservabilityPipeline, ChromeTraceExportIsLoadable) {
  const std::string jsonl_path = ::testing::TempDir() + "/pipeline2.jsonl";
  const std::string trace_path = ::testing::TempDir() + "/pipeline.trace";
  obs::MemorySink memory;
  obs::MetricsRegistry registry;
  tuner::TransferExperimentResult result;
  run(memory, jsonl_path, registry, result);

  const auto events = memory.events();
  obs::write_chrome_trace(trace_path, events);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream whole;
  whole << in.rdbuf();
  const auto doc = obs::json::Value::parse(whole.str());
  const auto& items = doc.at("traceEvents").as_array();
  ASSERT_EQ(items.size(), events.size());

  std::size_t spans = 0, fit_spans = 0, evals_with_kind = 0;
  for (const auto& item : items) {
    EXPECT_EQ(item.at("pid").as_number(), 1.0);
    const std::string& ph = item.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      EXPECT_GE(item.at("dur").as_number(), 0.0);
      ++spans;
    }
    const std::string& name = item.at("name").as_string();
    if (name.rfind("phase.", 0) == 0) ++fit_spans;
    if (name.rfind("eval.", 0) == 0 &&
        item.at("args").find("kind") != nullptr)
      ++evals_with_kind;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GE(fit_spans, 5u);  // source_rs/target_rs/fit/prune/bias/...
  EXPECT_GT(evals_with_kind, 0u);  // FailureKind rides on every eval

  std::remove(jsonl_path.c_str());
  std::remove(trace_path.c_str());
}

TEST_F(ObservabilityPipeline, ExperimentResultCarriesMetrics) {
  const std::string jsonl_path = ::testing::TempDir() + "/pipeline3.jsonl";
  obs::MemorySink memory;
  obs::MetricsRegistry registry;
  tuner::TransferExperimentResult result;
  run(memory, jsonl_path, registry, result);

  // The experiment attached a snapshot of its own registry.
  ASSERT_FALSE(result.metrics.empty());
  const auto doc = obs::json::Value::parse(result.metrics.to_json());
  const auto& counters = doc.at("counters");
  EXPECT_NE(counters.find("eval.source.calls"), nullptr);
  EXPECT_NE(counters.find("eval.target.calls"), nullptr);
  EXPECT_NE(counters.find("forest.fits"), nullptr);
  EXPECT_NE(counters.find("search.draws"), nullptr);
  const auto& histograms = doc.at("histograms");
  EXPECT_NE(histograms.find("forest.fit_seconds"), nullptr);
  EXPECT_NE(histograms.find("eval.target.latency_seconds"), nullptr);
  const auto& gauges = doc.at("gauges");
  EXPECT_NE(gauges.find("search.prune_rate"), nullptr);
  std::remove(jsonl_path.c_str());
}

TEST(SpanTreeIntegrity, ParallelFaultInjectedSearchHasNoOrphans) {
  // The acceptance scenario: a fault-injected search fanned out over 4
  // workers must emit a closed span tree — every event's parent was
  // itself emitted, and every evaluation chains up to the search span
  // even though it ran (and retried) on a pool worker.
  obs::MemorySink memory;
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRedirect metrics_redirect(registry);
  obs::ScopedSinkRedirect sink_redirect(&memory, obs::Severity::Debug);

  auto backend = apps::make_simulated_evaluator("LU", "Westmere");
  tuner::FaultProfile profile;
  profile.transient_rate = 0.2;
  profile.seed = 11;
  tuner::FaultInjectingEvaluator faulty(*backend, profile);
  obs::ObservedEvaluator observed(faulty, "eval");
  tuner::RetryPolicy policy;
  policy.max_attempts = 3;
  tuner::ResilientEvaluator resilient(observed, policy);
  tuner::ParallelOptions popt;
  popt.threads = 4;
  tuner::ParallelEvaluator parallel(resilient, popt);

  tuner::SearchOptions opt;
  opt.max_evals = 40;
  opt.seed = 5;
  const auto trace = tuner::random_search(parallel, opt);
  ASSERT_GT(trace.size(), 0u);

  const auto events = memory.events();
  std::set<std::uint64_t> span_ids, threads;
  std::uint64_t search_span = 0;
  for (const auto& e : events) {
    threads.insert(e.thread_id);
    if (e.span_id != 0) span_ids.insert(e.span_id);
    if (e.name == "search.RS") search_span = e.span_id;
  }
  ASSERT_NE(search_span, 0u);
  EXPECT_GT(threads.size(), 1u);  // the fan-out actually used workers

  // No orphans: every parent link resolves to an emitted span.
  for (const auto& e : events) {
    if (e.parent_span_id != 0) {
      EXPECT_TRUE(span_ids.count(e.parent_span_id))
          << e.name << " references unknown span " << e.parent_span_id;
    }
  }

  // Every eval event chains (transitively) up to the search span.
  std::map<std::uint64_t, std::uint64_t> parent_of;
  for (const auto& e : events)
    if (e.span_id != 0) parent_of[e.span_id] = e.parent_span_id;
  std::size_t evals = 0;
  for (const auto& e : events) {
    if (e.name != "eval") continue;
    ++evals;
    std::uint64_t cursor = e.parent_span_id;
    bool reached = false;
    for (int depth = 0; cursor != 0 && depth < 64; ++depth) {
      if (cursor == search_span) {
        reached = true;
        break;
      }
      const auto it = parent_of.find(cursor);
      cursor = it != parent_of.end() ? it->second : 0;
    }
    EXPECT_TRUE(reached) << "eval event not under the search span";
  }
  EXPECT_GE(evals, 40u);  // retries emit extra per-attempt events

  // The report pipeline agrees: zero orphans, retries surfaced.
  const auto rep = obs::analyze_events(events);
  EXPECT_EQ(rep.orphan_events, 0u);
  ASSERT_EQ(rep.searches.size(), 1u);
  EXPECT_EQ(rep.searches[0].evals, evals);
  EXPECT_GT(rep.workers.size(), 1u);
}

}  // namespace
}  // namespace portatune
