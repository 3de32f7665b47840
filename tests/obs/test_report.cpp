// portatune-report analysis: self/child time, causal attribution of
// evaluations to searches and cells, orphan detection, and the
// regression comparators the CI gate runs on.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/event.hpp"
#include "support/error.hpp"

namespace portatune::obs {
namespace {

Event span(std::string name, std::string cat, std::uint64_t id,
           std::uint64_t parent, double ts, double dur, std::uint64_t tid,
           std::vector<Field> fields = {}) {
  Event e;
  e.severity = Severity::Debug;
  e.name = std::move(name);
  e.category = std::move(cat);
  e.mono_seconds = ts;
  e.duration_seconds = dur;
  e.thread_id = tid;
  e.span_id = id;
  e.parent_span_id = parent;
  e.fields = std::move(fields);
  return e;
}

Event eval_event(std::uint64_t id, std::uint64_t parent, double ts,
                 double dur, std::uint64_t tid, bool ok, double seconds,
                 int attempts = 1, bool batched = false) {
  std::vector<Field> fields{{"ok", ok}, {"attempts", attempts}};
  if (ok) fields.emplace_back("seconds", seconds);
  if (batched) fields.emplace_back("batched", true);
  return span("eval", "eval", id, parent, ts, dur, tid, std::move(fields));
}

/// A small two-thread log: a search span with two windows, three evals
/// (one failed after a retry, one batched), all causally linked.
std::vector<Event> canned_log() {
  std::vector<Event> log;
  log.push_back(eval_event(4, 3, 0.002, 0.009, 2, true, 0.5));
  log.push_back(span("resilient.call", "eval", 3, 2, 0.002, 0.010, 2));
  log.push_back(eval_event(6, 5, 0.015, 0.018, 2, false, 0.0, 2));
  log.push_back(span("resilient.call", "eval", 5, 2, 0.015, 0.020, 2));
  log.push_back(span("search.window", "search", 2, 1, 0.001, 0.040, 1));
  log.push_back(eval_event(0, 7, 0.052, 0.010, 2, true, 0.4, 1, true));
  log.push_back(span("search.window", "search", 7, 1, 0.050, 0.045, 1));
  log.push_back(span("search.RS", "search", 1, 0, 0.000, 0.100, 1,
                     {{"algorithm", "RS"}, {"evals", 3}}));
  return log;
}

TEST(Report, SelfTimeSubtractsDirectChildren) {
  const auto rep = analyze_events(canned_log());
  ASSERT_EQ(rep.orphan_events, 0u);
  const PhaseStat* search = nullptr;
  const PhaseStat* window = nullptr;
  for (const auto& p : rep.phases) {
    if (p.name == "search.RS") search = &p;
    if (p.name == "search.window") window = &p;
  }
  ASSERT_NE(search, nullptr);
  ASSERT_NE(window, nullptr);
  // search.RS: 0.100 total minus its two windows (0.040 + 0.045).
  EXPECT_NEAR(search->total_seconds, 0.100, 1e-12);
  EXPECT_NEAR(search->self_seconds, 0.015, 1e-12);
  // first window: 0.040 minus two resilient.call children (0.030);
  // second window: 0.045 minus the batched eval (0.010).
  EXPECT_EQ(window->count, 2u);
  EXPECT_NEAR(window->self_seconds, 0.010 + 0.035, 1e-12);
}

TEST(Report, AttributesEvalsToTheEnclosingSearch) {
  const auto rep = analyze_events(canned_log());
  EXPECT_EQ(rep.eval_events, 3u);
  EXPECT_EQ(rep.eval_failures, 1u);
  EXPECT_EQ(rep.eval_retries, 1u);
  EXPECT_EQ(rep.batched_evals, 1u);

  ASSERT_EQ(rep.searches.size(), 1u);
  const SearchStat& s = rep.searches[0];
  EXPECT_EQ(s.algorithm, "RS");
  EXPECT_EQ(s.evals, 3u);
  EXPECT_EQ(s.failures, 1u);
  EXPECT_EQ(s.retried, 1u);
  // Evals in timestamp order: 0.5 (ok), fail, 0.4 (ok) -> best is #3.
  EXPECT_NEAR(s.best_seconds, 0.4, 1e-12);
  EXPECT_EQ(s.evals_to_best, 3u);
}

TEST(Report, TracksWorkersAndWall) {
  const auto rep = analyze_events(canned_log());
  EXPECT_EQ(rep.workers.size(), 2u);
  EXPECT_NEAR(rep.wall_seconds, 0.100, 1e-12);
  // Worker lanes are dense and in first-appearance order.
  EXPECT_EQ(rep.workers[0].lane, 0);
  EXPECT_EQ(rep.workers[0].thread_id, 2u);
  EXPECT_EQ(rep.workers[1].thread_id, 1u);
}

TEST(Report, CountsOrphans) {
  auto log = canned_log();
  Event stray = eval_event(0, 999, 0.09, 0.001, 2, true, 1.0);
  log.push_back(stray);
  const auto rep = analyze_events(log);
  EXPECT_EQ(rep.orphan_events, 1u);
}

TEST(Report, AttributesEvalsToExperimentCells) {
  std::vector<Event> log;
  log.push_back(eval_event(3, 2, 0.01, 0.01, 4, true, 0.9));
  log.push_back(eval_event(5, 2, 0.03, 0.01, 4, false, 0.0));
  log.push_back(span("search.RS", "search", 2, 1, 0.0, 0.05, 4,
                     {{"algorithm", "RS"}}));
  log.push_back(span("experiment.cell", "experiment", 1, 0, 0.0, 0.06, 4,
                     {{"label", "LU W->S"}}));
  const auto rep = analyze_events(log);
  ASSERT_EQ(rep.cells.size(), 1u);
  EXPECT_EQ(rep.cells[0].label, "LU W->S");
  EXPECT_EQ(rep.cells[0].evals, 2u);
  EXPECT_EQ(rep.cells[0].failures, 1u);
}

TEST(Report, CollectsGuardTimeline) {
  auto log = canned_log();
  Event g;
  g.severity = Severity::Warn;
  g.name = "guard.state";
  g.category = "search";
  g.mono_seconds = 0.06;
  g.thread_id = 1;
  g.fields = {{"search", "RS_p"},
              {"from", "trusted"},
              {"to", "degraded"},
              {"trust", 0.15},
              {"evals", std::uint64_t{20}},
              {"reason", "trust-floor"}};
  log.push_back(g);
  const auto rep = analyze_events(log);
  ASSERT_EQ(rep.guard_events.size(), 1u);
  EXPECT_EQ(rep.guard_events[0].search, "RS_p");
  EXPECT_EQ(rep.guard_events[0].from, "trusted");
  EXPECT_EQ(rep.guard_events[0].to, "degraded");
  EXPECT_EQ(rep.guard_events[0].reason, "trust-floor");
  EXPECT_NEAR(rep.guard_events[0].trust, 0.15, 1e-9);
  EXPECT_EQ(rep.guard_events[0].evals, 20u);

  std::ostringstream os;
  write_report(os, rep);
  EXPECT_NE(os.str().find("guard timeline"), std::string::npos);
  EXPECT_NE(os.str().find("trust-floor"), std::string::npos);
}

TEST(Report, ReportsSkippedLines) {
  Report rep = analyze_events(canned_log());
  rep.skipped_lines = 3;
  std::ostringstream os;
  write_report(os, rep);
  EXPECT_NE(os.str().find("skipped_lines 3"), std::string::npos);
}

TEST(Report, WriteReportMentionsEverySection) {
  std::ostringstream os;
  write_report(os, analyze_events(canned_log()));
  const std::string out = os.str();
  for (const char* needle :
       {"portatune report", "phases", "workers", "searches", "search.RS",
        "orphans 0"})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(Comparison, FlagsRegressionsAtTheThreshold) {
  Report base, cur;
  PhaseStat p;
  p.name = "phase.fit";
  p.count = 1;
  p.total_seconds = 1.0;
  base.phases.push_back(p);
  p.total_seconds = 1.25;
  cur.phases.push_back(p);
  p.name = "gone";
  base.phases.push_back(p);
  p.name = "new";
  cur.phases.push_back(p);

  const auto strict = compare_reports(base, cur, 20.0);
  ASSERT_EQ(strict.rows.size(), 1u);
  EXPECT_NEAR(strict.rows[0].delta_percent, 25.0, 1e-9);
  EXPECT_TRUE(strict.rows[0].regressed);
  EXPECT_EQ(strict.regressions, 1u);
  EXPECT_TRUE(strict.regressed());
  ASSERT_EQ(strict.only_baseline.size(), 1u);
  EXPECT_EQ(strict.only_baseline[0], "gone");
  ASSERT_EQ(strict.only_current.size(), 1u);
  EXPECT_EQ(strict.only_current[0], "new");

  // A looser threshold lets the same delta pass.
  EXPECT_FALSE(compare_reports(base, cur, 30.0).regressed());
  // Speedups never trip the gate.
  EXPECT_FALSE(compare_reports(cur, base, 20.0).regressed());
}

TEST(Comparison, ReadsGoogleBenchmarkJson) {
  const std::string base_path = ::testing::TempDir() + "/bench_base.json";
  const std::string cur_path = ::testing::TempDir() + "/bench_cur.json";
  {
    std::ofstream b(base_path);
    b << R"({"context":{},"benchmarks":[)"
      << R"({"name":"BM_A","real_time":10.0,"time_unit":"ns"},)"
      << R"({"name":"BM_B","real_time":5.0,"time_unit":"ns"}]})";
    std::ofstream c(cur_path);
    c << R"({"context":{},"benchmarks":[)"
      << R"({"name":"BM_A","real_time":15.0,"time_unit":"ns"},)"
      << R"({"name":"BM_B","real_time":5.0,"time_unit":"ns"}]})";
  }
  const auto c = compare_bench_json(base_path, cur_path, 20.0);
  ASSERT_EQ(c.rows.size(), 2u);
  EXPECT_TRUE(c.rows[0].regressed);
  EXPECT_NEAR(c.rows[0].delta_percent, 50.0, 1e-9);
  EXPECT_FALSE(c.rows[1].regressed);
  EXPECT_EQ(c.regressions, 1u);
  std::remove(base_path.c_str());
  std::remove(cur_path.c_str());
}

/// Write `text` to a fresh file under the test's temp directory.
std::string temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

TEST(MetricsSummary, OutOfRangeCountNamesTheFile) {
  // Counts are non-negative integers: a forged one is an error naming
  // the snapshot, never an out-of-range cast.
  for (const std::string& doc :
       {std::string(R"({"counters":{"a":-1}})"),
        std::string(R"({"counters":{"a":1e300}})"),
        std::string(R"({"histograms":{"h":{"count":-3,"mean":0,"min":0,)"
                    R"("max":0}}})")}) {
    const std::string path = temp_file("forged_metrics.json", doc);
    std::ostringstream os;
    try {
      write_metrics_summary(os, path);
      ADD_FAILURE() << doc << " was accepted: " << os.str();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
}

TEST(TimeseriesSummary, OutOfRangePidNamesTheFile) {
  const std::string path = temp_file(
      "forged_timeseries.jsonl",
      "{\"seq\":0,\"pid\":7,\"t_wall\":1.0}\n"
      "{\"seq\":1,\"pid\":-7,\"t_wall\":2.0}\n");
  try {
    analyze_timeseries(path);
    ADD_FAILURE() << "pid -7 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace portatune::obs
