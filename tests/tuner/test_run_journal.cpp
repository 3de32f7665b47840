#include "tuner/run_journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

class RunJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = std::filesystem::temp_directory_path() /
           ("portatune_journal_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string run_dir(const char* name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(RunJournalTest, ManifestLifecycle) {
  const std::string dir = run_dir("lifecycle");
  RunJournal journal = RunJournal::create(dir, {"cell a", "cell b"});
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.state(0), CellState::Pending);
  EXPECT_EQ(journal.label(1), "cell b");
  EXPECT_TRUE(RunJournal::exists(dir));
  EXPECT_TRUE(std::filesystem::is_directory(journal.cell_dir(0)));

  journal.mark_running(0);
  EXPECT_EQ(journal.state(0), CellState::Running);

  // A second create over a resumable run must refuse.
  EXPECT_THROW(RunJournal::create(dir, {"cell a", "cell b"}), Error);

  // Reopen: the crashed `running` cell demotes to pending.
  RunJournal reopened = RunJournal::open(dir, {"cell a", "cell b"});
  EXPECT_EQ(reopened.state(0), CellState::Pending);
  EXPECT_EQ(reopened.state(1), CellState::Pending);
}

TEST_F(RunJournalTest, OpenRejectsMismatchedJobs) {
  const std::string dir = run_dir("labels");
  RunJournal::create(dir, {"cell a", "cell b"});
  EXPECT_THROW(RunJournal::open(dir, {"cell a"}), Error);
  EXPECT_THROW(RunJournal::open(dir, {"cell a", "other"}), Error);
}

TEST_F(RunJournalTest, OpenRejectsCorruptedManifest) {
  const std::string dir = run_dir("corrupt");
  RunJournal::create(dir, {"cell a"});
  const std::string manifest = dir + "/journal.csv";
  std::string bytes = read_file(manifest);
  bytes[bytes.size() / 2] ^= 0x01;  // flip one bit mid-file
  atomic_write_file(manifest, bytes);
  EXPECT_THROW(RunJournal::open(dir, {"cell a"}), Error);
}

TEST_F(RunJournalTest, DoneCellWithBadBundleDemotesToPending) {
  const std::string dir = run_dir("bundle");
  {
    RunJournal journal = RunJournal::create(dir, {"cell a"});
    // Claim done with a checksum no artifact bundle can satisfy (the
    // phase files were never written).
    journal.mark_done(0, 0xdeadbeefULL);
  }
  RunJournal reopened = RunJournal::open(dir, {"cell a"});
  EXPECT_EQ(reopened.state(0), CellState::Pending);
}

// -- Journaled fan-out ------------------------------------------------------

ExperimentSettings small_settings() {
  ExperimentSettings s;
  s.max_evals = 12;
  s.pool_size = 300;
  s.seed = 77;
  return s;
}

/// Two-cell grid over deterministic quadratic landscapes. `trigger`
/// (optional) is installed on cell 0's source evaluator and invoked once
/// per evaluation — the cancellation tests use it to request shutdown
/// mid-search.
std::vector<ExperimentJob> make_jobs(
    std::function<void()> trigger = nullptr) {
  const auto quad = [](const std::string& machine, double skew) {
    return std::make_unique<QuadraticEvaluator>(
        machine, std::vector<double>{7, 2, 5, 1},
        std::vector<double>{1.0 * skew, 0.5, 2.0, 0.25 * skew});
  };
  std::vector<ExperimentJob> jobs(2);
  jobs[0].label = "quad a->b";
  jobs[0].settings = small_settings();
  jobs[0].make_source = [quad, trigger]() -> EvaluatorPtr {
    auto eval = quad("a", 1.0);
    if (trigger)
      eval->fail_when = [trigger](const ParamConfig&) {
        trigger();
        return false;  // never fails — only counts calls
      };
    return eval;
  };
  jobs[0].make_target = [quad]() -> EvaluatorPtr { return quad("b", 1.4); };
  jobs[1].label = "quad a->c";
  jobs[1].settings = small_settings();
  jobs[1].make_source = [quad]() -> EvaluatorPtr { return quad("a", 1.0); };
  jobs[1].make_target = [quad]() -> EvaluatorPtr { return quad("c", 0.7); };
  return jobs;
}

void expect_same_trace(const SearchTrace& a, const SearchTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.algorithm(), b.algorithm());
  EXPECT_EQ(a.stop_reason(), b.stop_reason());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).config, b.entry(i).config);
    EXPECT_DOUBLE_EQ(a.entry(i).seconds, b.entry(i).seconds);
    EXPECT_DOUBLE_EQ(a.entry(i).elapsed, b.entry(i).elapsed);
    EXPECT_EQ(a.entry(i).draw_index, b.entry(i).draw_index);
  }
}

void expect_same_result(const TransferExperimentResult& a,
                        const TransferExperimentResult& b) {
  expect_same_trace(a.source_rs, b.source_rs);
  expect_same_trace(a.target_rs, b.target_rs);
  expect_same_trace(a.pruned, b.pruned);
  expect_same_trace(a.biased, b.biased);
  expect_same_trace(a.pruned_mf, b.pruned_mf);
  expect_same_trace(a.biased_mf, b.biased_mf);
  EXPECT_DOUBLE_EQ(a.pearson, b.pearson);
  EXPECT_DOUBLE_EQ(a.spearman, b.spearman);
  EXPECT_DOUBLE_EQ(a.pruned_speedup.performance,
                   b.pruned_speedup.performance);
  EXPECT_DOUBLE_EQ(a.biased_speedup.performance,
                   b.biased_speedup.performance);
}

TEST_F(RunJournalTest, FreshRunCompletesAndRestoresOnReinvocation) {
  JournaledRunOptions opt;
  opt.run_dir = run_dir("fresh");
  opt.threads = 1;
  JournaledRunSummary sum;
  const auto first =
      run_transfer_experiments_journaled(make_jobs(), opt, &sum);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_FALSE(sum.interrupted);
  EXPECT_EQ(sum.cells_completed, 2u);
  EXPECT_EQ(sum.cells_restored, 0u);

  // Re-invoking with --resume restores every cell from its artifacts and
  // recomputes identical derived metrics without re-running anything.
  opt.resume = true;
  JournaledRunSummary again;
  const auto second =
      run_transfer_experiments_journaled(make_jobs(), opt, &again);
  EXPECT_EQ(again.cells_restored, 2u);
  EXPECT_EQ(again.cells_completed, 0u);
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_same_result(first[i], second[i]);
}

TEST_F(RunJournalTest, PeekAndTheEvalsGaugeDescribeAFinishedRun) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRedirect redirect(registry);
  JournaledRunOptions opt;
  opt.run_dir = run_dir("peek");
  opt.threads = 1;
  const auto results = run_transfer_experiments_journaled(make_jobs(), opt);
  // Six searches per cell, each capped at the cell's max_evals.
  EXPECT_EQ(registry.gauge("run.evals_total").value(),
            2.0 * kNumExperimentPhases * small_settings().max_evals);

  // `status` reads per-cell progress from the phase files; it must equal
  // the traces the run returned.
  const RunJournal::Peek peek = RunJournal::peek(opt.run_dir);
  ASSERT_EQ(peek.cells.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TransferExperimentResult& r = results[i];
    std::size_t evals = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const SearchTrace* t : {&r.source_rs, &r.target_rs, &r.pruned,
                                 &r.biased, &r.pruned_mf, &r.biased_mf}) {
      evals += t->size();
      best = std::min(best, t->best_seconds());
    }
    EXPECT_EQ(peek.cells[i].state, CellState::Done);
    EXPECT_EQ(peek.cells[i].phases_done, kNumExperimentPhases);
    EXPECT_EQ(peek.cells[i].evals, evals);
    EXPECT_EQ(peek.cells[i].best_seconds, best);
  }
}

TEST_F(RunJournalTest, CancelledMidSearchResumesIdentically) {
  // Reference: the same grid, uninterrupted, in its own run directory.
  JournaledRunOptions ref_opt;
  ref_opt.run_dir = run_dir("reference");
  ref_opt.threads = 1;
  ref_opt.rs_checkpoint_every = 3;
  const auto reference =
      run_transfer_experiments_journaled(make_jobs(), ref_opt, nullptr);

  // Interrupted run: cancellation fires mid source-RS of cell 0, so the
  // journal holds a partial RS checkpoint and a `running` cell row.
  CancellationSource cancel;
  auto calls = std::make_shared<int>(0);
  const auto trigger = [calls, cancel]() mutable {
    if (++*calls == 8) cancel.request_cancel();
  };
  JournaledRunOptions opt;
  opt.run_dir = run_dir("interrupted");
  opt.threads = 1;
  opt.rs_checkpoint_every = 3;
  opt.cancel = cancel.token();
  JournaledRunSummary sum;
  run_transfer_experiments_journaled(make_jobs(trigger), opt, &sum);
  EXPECT_TRUE(sum.interrupted);
  EXPECT_EQ(sum.cells_completed, 0u);

  // Resume without the trigger: cell 0 continues its RS from the partial
  // checkpoint, cell 1 runs fresh; everything matches the reference.
  opt.resume = true;
  opt.cancel = {};
  JournaledRunSummary resumed_sum;
  const auto resumed =
      run_transfer_experiments_journaled(make_jobs(), opt, &resumed_sum);
  EXPECT_FALSE(resumed_sum.interrupted);
  EXPECT_EQ(resumed_sum.cells_completed, 2u);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < resumed.size(); ++i)
    expect_same_result(reference[i], resumed[i]);
}

TEST_F(RunJournalTest, PreCancelledRunLeavesEverythingPendingAndResumable) {
  CancellationSource cancel;
  cancel.request_cancel();
  JournaledRunOptions opt;
  opt.run_dir = run_dir("precancelled");
  opt.threads = 1;
  opt.cancel = cancel.token();
  JournaledRunSummary sum;
  run_transfer_experiments_journaled(make_jobs(), opt, &sum);
  EXPECT_TRUE(sum.interrupted);
  EXPECT_EQ(sum.cells_completed, 0u);

  opt.resume = true;
  opt.cancel = {};
  JournaledRunSummary resumed;
  const auto results =
      run_transfer_experiments_journaled(make_jobs(), opt, &resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.cells_completed, 2u);
  EXPECT_FALSE(results[0].source_rs.empty());
}

}  // namespace
}  // namespace portatune::tuner
