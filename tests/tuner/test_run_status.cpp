#include "tuner/run_status.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "tuner/persistence.hpp"
#include "tuner/run_journal.hpp"

namespace portatune::tuner {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The run's heartbeat: a sampler on the run directory's time-series.
/// The long period leaves the anchor row (and the final row on
/// destruction) as the only rows unless a test samples by hand.
obs::MetricsSampler::Options heartbeat(const std::string& dir,
                                       obs::MetricsRegistry* registry =
                                           nullptr) {
  obs::MetricsSampler::Options o;
  o.path = dir + "/" + std::string(obs::kTimeseriesFile);
  o.period_seconds = 60.0;
  o.registry = registry;
  return o;
}

/// A checkpoint file with one row per entry of `seconds`.
void write_phase(const std::string& path, const std::vector<double>& seconds) {
  ParamSpace space;
  space.add("x", {1.0, 2.0, 3.0});
  SearchCheckpoint snap;
  snap.trace = SearchTrace("RS", "P", "M");
  for (std::size_t i = 0; i < seconds.size(); ++i)
    snap.trace.record(ParamConfig{static_cast<int>(i % 3)}, seconds[i], i);
  snap.draws = seconds.size();
  save_checkpoint_csv(path, snap, space);
}

/// A hand-written time-series row with the sampler's identity fields.
std::string ts_row(int seq, int pid, double t_wall) {
  return "{\"seq\":" + std::to_string(seq) +
         ",\"pid\":" + std::to_string(pid) +
         ",\"t_wall\":" + std::to_string(t_wall) + ",\"t_mono\":1.5}";
}

TEST(RunJournalPeek, IsReadOnlyAndPreservesRunningRows) {
  const std::string dir = fresh_dir("peek_ro");
  RunJournal journal = RunJournal::create(dir, {"cell a", "cell b"});
  journal.mark_running(0);
  const std::string before = slurp(dir + "/journal.csv");

  const RunJournal::Peek peek = RunJournal::peek(dir);
  ASSERT_EQ(peek.cells.size(), 2u);
  // open() would demote the running row to pending (crash recovery);
  // peek must report it exactly as recorded and rewrite nothing.
  EXPECT_EQ(peek.cells[0].state, CellState::Running);
  EXPECT_EQ(peek.cells[1].state, CellState::Pending);
  EXPECT_EQ(peek.cells[0].label, "cell a");
  EXPECT_EQ(peek.cells[1].label, "cell b");
  EXPECT_EQ(slurp(dir + "/journal.csv"), before);
}

TEST(RunJournalPeek, SurvivesConcurrentManifestRewrites) {
  const std::string dir = fresh_dir("peek_race");
  RunJournal journal = RunJournal::create(dir, {"a", "b", "c"});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      journal.mark_running(i % 3);
      journal.mark_pending(i % 3);
      ++i;
    }
  });
  int peeks = 0;
  for (int i = 0; i < 200; ++i) {
    const RunJournal::Peek peek = RunJournal::peek(dir);
    EXPECT_EQ(peek.cells.size(), 3u);
    ++peeks;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(peeks, 200);
}

TEST(RunJournalPeek, CellValuesEqualThePhaseFiles) {
  const std::string dir = fresh_dir("peek_cells");
  RunJournal journal =
      RunJournal::create(dir, {"whole", "partial only", "both"});
  for (std::size_t p = 0; p < kNumExperimentPhases; ++p)
    write_phase(journal.phase_path(0, kExperimentPhases[p]),
                {2.0 + p, 0.5 + p});
  // The in-flight source RS: only its periodic snapshot exists yet.
  write_phase(journal.partial_rs_path(1), {0.9, 0.4, 0.7});
  // A finished source RS next to a stale snapshot: counted once.
  write_phase(journal.phase_path(2, "source_rs"), {0.8, 0.6});
  write_phase(journal.partial_rs_path(2), {0.8, 0.1});

  const RunJournal::Peek peek = RunJournal::peek(dir);
  ASSERT_EQ(peek.cells.size(), 3u);
  EXPECT_EQ(peek.cells[0].phases_done, kNumExperimentPhases);
  EXPECT_EQ(peek.cells[0].evals, 2 * kNumExperimentPhases);
  EXPECT_DOUBLE_EQ(peek.cells[0].best_seconds, 0.5);
  EXPECT_EQ(peek.cells[1].phases_done, 0u);
  EXPECT_EQ(peek.cells[1].evals, 3u);
  EXPECT_DOUBLE_EQ(peek.cells[1].best_seconds, 0.4);
  EXPECT_EQ(peek.cells[2].phases_done, 1u);
  EXPECT_EQ(peek.cells[2].evals, 2u);
  EXPECT_DOUBLE_EQ(peek.cells[2].best_seconds, 0.6);
}

TEST(RunJournalPeek, CorruptOrForeignPhaseFilesCountAsAbsent) {
  const std::string dir = fresh_dir("peek_corrupt");
  RunJournal journal = RunJournal::create(dir, {"a"});
  write_phase(journal.phase_path(0, "source_rs"), {0.5, 0.7});
  // One flipped byte: the checksum footer no longer verifies.
  write_phase(journal.phase_path(0, "target_rs"), {0.1});
  std::string bytes = read_file(journal.phase_path(0, "target_rs"));
  bytes[bytes.size() / 2] ^= 0x01;
  atomic_write_file(journal.phase_path(0, "target_rs"), bytes);
  // Checksummed, but no checkpoint; and an empty file.
  atomic_write_file(journal.phase_path(0, "pruned"),
                    read_file(dir + "/journal.csv"));
  atomic_write_file(journal.phase_path(0, "biased"), "");

  const RunJournal::Peek peek = RunJournal::peek(dir);
  ASSERT_EQ(peek.cells.size(), 1u);
  EXPECT_EQ(peek.cells[0].phases_done, 1u);
  EXPECT_EQ(peek.cells[0].evals, 2u);
  EXPECT_DOUBLE_EQ(peek.cells[0].best_seconds, 0.5);
  std::ostringstream os;
  EXPECT_NO_THROW(render_run_status(os, dir));
}

TEST(TimeseriesTail, SkipsATornFinalLine) {
  const std::string dir = fresh_dir("ts_torn");
  ensure_directory(dir);
  const std::string path = dir + "/ts.jsonl";
  EXPECT_FALSE(obs::read_last_timeseries_row(path).has_value());
  // A SIGKILL mid-append leaves the last row without its newline.
  atomic_write_file(path, ts_row(0, 41, 100.0) + "\n" +
                              ts_row(1, 41, 101.0) + "\n" +
                              R"({"seq":2,"pid":41,"t_wa)");
  const auto row = obs::read_last_timeseries_row(path);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->at("seq").as_number(), 1.0);
  EXPECT_EQ(row->at("t_wall").as_number(), 101.0);
}

TEST(TimeseriesTail, ReadsTheNewestPidSegment) {
  // A killed run (pid 41, torn last line) resumed by this process: the
  // resumed sampler's anchor row must start a line of its own, and it is
  // the row the reader returns.
  const std::string dir = fresh_dir("ts_pids");
  ensure_directory(dir);
  atomic_write_file(dir + "/" + std::string(obs::kTimeseriesFile),
                    ts_row(0, 41, 100.0) + "\n" + ts_row(1, 41, 101.0) +
                        "\n" + R"({"seq":2,"pid":41,"t_wall":10)");
  obs::MetricsRegistry registry;
  obs::MetricsSampler sampler(heartbeat(dir, &registry));
  const auto row = obs::read_last_timeseries_row(
      dir + "/" + std::string(obs::kTimeseriesFile));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->at("pid").as_number(), static_cast<double>(::getpid()));
  EXPECT_EQ(row->at("seq").as_number(), 0.0);
}

TEST(TimeseriesTail, WidensPastARowLongerThanItsWindow) {
  const std::string dir = fresh_dir("ts_long");
  ensure_directory(dir);
  const std::string path = dir + "/ts.jsonl";
  const std::string long_row = R"({"seq":7,"pid":41,"t_wall":5,"pad":")" +
                               std::string(300'000, 'x') + "\"}";
  atomic_write_file(path, ts_row(6, 41, 4.0) + "\n" + long_row + "\n");
  const auto row = obs::read_last_timeseries_row(path);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->at("seq").as_number(), 7.0);
}

TEST(TimeseriesTail, ReaderRacingASamplerNeverFails) {
  // The sampler appends without atomic renames, so a reader regularly
  // meets a row mid-write; it must fall back to the last complete one.
  const std::string dir = fresh_dir("ts_race");
  ensure_directory(dir);
  obs::MetricsRegistry registry;
  for (int i = 0; i < 40; ++i)
    registry.counter("c" + std::to_string(i)).add(1);
  obs::MetricsSampler::Options o = heartbeat(dir, &registry);
  o.period_seconds = 0.01;
  obs::MetricsSampler sampler(o);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      registry.counter("c0").add(1);
      sampler.sample_now();
    }
  });
  int failures = 0;
  // However late the writer is scheduled, keep reading until it has
  // appended rows while the reads ran.
  for (int i = 0; i < 300 || sampler.samples_written() < 3; ++i)
    if (!obs::read_last_timeseries_row(o.path).has_value()) ++failures;
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures, 0);
  EXPECT_GT(sampler.samples_written(), 1u);
}

TEST(RenderRunStatus, MissingJournalThrows) {
  const std::string dir = fresh_dir("rrs_nojournal");
  ensure_directory(dir);
  std::ostringstream os;
  EXPECT_THROW({ render_run_status(os, dir); }, Error);
}

TEST(RenderRunStatus, DeadRunReportsStaleHeartbeatAndResumeHint) {
  const std::string dir = fresh_dir("rrs_dead");
  RunJournal journal = RunJournal::create(dir, {"a", "b"});
  journal.mark_running(0);
  {
    // A heartbeat is written... and then the "process" dies.
    obs::MetricsSampler sampler(heartbeat(dir));
  }
  std::ostringstream os;
  // Any heartbeat older than -1s is stale: force the dead branch without
  // sleeping in the test.
  const RunLiveness liveness = render_run_status(os, dir, -1.0);
  EXPECT_EQ(liveness, RunLiveness::Dead);
  EXPECT_NE(os.str().find("DEAD"), std::string::npos);
  EXPECT_NE(os.str().find("--resume"), std::string::npos);
  EXPECT_NE(os.str().find(dir), std::string::npos);
}

TEST(RenderRunStatus, FreshHeartbeatMeansRunning) {
  const std::string dir = fresh_dir("rrs_live");
  RunJournal journal = RunJournal::create(dir, {"a"});
  journal.mark_running(0);
  obs::MetricsSampler sampler(heartbeat(dir));
  std::ostringstream os;
  const RunLiveness liveness = render_run_status(os, dir, 3600.0);
  EXPECT_EQ(liveness, RunLiveness::Running);
  EXPECT_NE(os.str().find("RUNNING"), std::string::npos);
}

TEST(RenderRunStatus, AllCellsDoneMeansCompleteEvenWithoutHeartbeat) {
  const std::string dir = fresh_dir("rrs_done");
  RunJournal journal = RunJournal::create(dir, {"a"});
  // Forge a done row without artifacts: status is a journal-level view.
  journal.mark_done(0, 0);
  std::ostringstream os;
  const RunLiveness liveness = render_run_status(os, dir, -1.0);
  EXPECT_EQ(liveness, RunLiveness::Complete);
  EXPECT_NE(os.str().find("COMPLETE"), std::string::npos);
}

TEST(RenderRunStatus, NoHeartbeatWithPendingCellsIsDead) {
  const std::string dir = fresh_dir("rrs_nobeat");
  RunJournal journal = RunJournal::create(dir, {"a"});
  std::ostringstream os;
  const RunLiveness liveness = render_run_status(os, dir, 10.0);
  EXPECT_EQ(liveness, RunLiveness::Dead);
  EXPECT_NE(os.str().find("none found"), std::string::npos);
}

TEST(RenderRunStatus, ProgressComesFromThePhaseFilesAndTheLastRow) {
  const std::string dir = fresh_dir("rrs_progress");
  RunJournal journal = RunJournal::create(dir, {"a", "b"});
  journal.mark_running(0);
  write_phase(journal.phase_path(0, "source_rs"), {0.8, 0.6});
  obs::MetricsRegistry registry;
  registry.gauge("run.evals_total").set(240.0);
  registry.gauge("pool.workers_busy").set(2.0);
  registry.gauge("pool.queue_depth").set(0.0);
  obs::MetricsSampler sampler(heartbeat(dir, &registry));
  registry.counter("eval.target.calls").add(50);
  sampler.sample_now();  // a second row carries the counter's rate

  std::ostringstream os;
  EXPECT_EQ(render_run_status(os, dir, 3600.0), RunLiveness::Running);
  const std::string out = os.str();
  EXPECT_NE(out.find("progress:  evals 2/240 (0.8%), best 0.6 s, "),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(" evals/s, ETA "), std::string::npos) << out;
  EXPECT_NE(out.find("pool:      2 workers busy, queue depth 0"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("[000] running a  phase=target_rs  1/6 phases  2 evals"
                     "  best=0.6 s"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("[001] pending b  0/6 phases  0 evals\n"),
            std::string::npos)
      << out;
}

TEST(RenderRunStatus, OutOfRangePidNamesTheTimeseries) {
  // A pid is a non-negative integer: a forged one is an error naming the
  // file, never an out-of-range cast.
  const std::string dir = fresh_dir("rrs_forged_pid");
  RunJournal journal = RunJournal::create(dir, {"a"});
  journal.mark_running(0);
  const std::string series = dir + "/" + std::string(obs::kTimeseriesFile);
  for (const char* pid : {"-1", "1e300", "2.5"}) {
    std::string row = ts_row(0, 7, obs::wall_unix_now());
    row.replace(row.find("\"pid\":7"), 7, std::string("\"pid\":") + pid);
    atomic_write_file(series, row + "\n");
    std::ostringstream os;
    try {
      render_run_status(os, dir, 3600.0);
      ADD_FAILURE() << "pid " << pid << " was accepted: " << os.str();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(series), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace portatune::tuner
