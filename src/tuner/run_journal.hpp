// Crash-safe experiment orchestration: the run journal.
//
// A journaled run executes an experiment fan-out (run_transfer_experiments)
// inside a *run directory* with a write-ahead manifest:
//
//   <run-dir>/journal.csv        the manifest (cell states, see below)
//   <run-dir>/cell-000/          one directory per experiment cell
//       source_rs.csv            completed phases, as checkpoint CSVs
//       target_rs.csv            (elapsed clock / failure stats / stop
//       pruned.csv ...           reason all preserved)
//       source_rs.partial.csv    mid-flight snapshot of the long RS phase
//
// Liveness is not the journal's job. A caller that wants `portatune_cli
// status --run-dir` to tell a live run from a dead one runs an
// obs::MetricsSampler on <run-dir>/metrics_timeseries.jsonl for the
// run's lifetime (the CLI's experiment command does); its last row is the
// heartbeat, and the runner's `run.evals_total` gauge gives the budget.
//
// Manifest format (checksummed like every other persistence artifact):
//
//   # portatune-journal v1,<ncells>
//   state,checksum,label
//   done,0f3a...c1,MM idataplex->e5
//   pending,0000000000000000,MM e5->epyc
//   # checksum,<16 hex FNV-1a over everything above>
//
// The state machine per cell is pending -> running -> done; every
// transition rewrites the whole manifest through atomic_write_file, so a
// SIGKILL at any instant leaves a parseable manifest describing exactly
// which cells can be trusted. `done` rows carry the FNV-1a chain over the
// cell's six phase files; open() re-verifies it and demotes any cell whose
// artifacts are missing or corrupted back to pending (it simply re-runs).
// `running` rows found by open() are crashes mid-cell: they also demote to
// pending, but their completed phase files are picked up by the phase
// restore hooks, so only the interrupted phase is re-executed.
//
// Determinism: searches are seed-deterministic and the derived metrics are
// a pure function of the six traces (finalize_transfer_result), so a run
// that is killed and resumed produces results byte-identical to an
// uninterrupted run (modulo the wall_unix column, which records real
// time).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/cancellation.hpp"
#include "tuner/experiment.hpp"

namespace portatune::tuner {

/// The engine's phase names, in protocol order. Phase artifact files are
/// named `<phase>.csv` inside the cell directory.
inline constexpr const char* kExperimentPhases[] = {
    "source_rs", "target_rs", "pruned", "biased", "pruned_mf", "biased_mf"};
inline constexpr std::size_t kNumExperimentPhases = 6;

enum class CellState { Pending, Running, Done };

const char* to_string(CellState s) noexcept;

/// The write-ahead manifest of one journaled run. Thread-safe: concurrent
/// cells transition their rows under one mutex, and every mutation
/// rewrites the manifest atomically before returning.
class RunJournal {
 public:
  /// Start a fresh run: creates the run directory, the per-cell
  /// directories, and a manifest with every cell pending. Throws when the
  /// directory already contains a journal (resume instead — silently
  /// clobbering a resumable run is how results get lost).
  static RunJournal create(std::string run_dir,
                           std::vector<std::string> labels);

  /// Reopen an existing run for resumption. The labels must match the
  /// manifest row-for-row (same jobs, same order). Done cells have their
  /// artifact bundles re-verified against the recorded checksum; cells
  /// that fail verification — and cells left `running` by a crash — are
  /// demoted to pending.
  static RunJournal open(std::string run_dir,
                         std::vector<std::string> labels);

  static bool exists(const std::string& run_dir);

  /// Read-only snapshot for status tooling: parses journal.csv without
  /// rewriting it or demoting cells (open() does both), so a reader can
  /// inspect a *live* run another process owns. States are reported
  /// exactly as recorded — a `running` row may mean in-flight or crashed;
  /// pair with the heartbeat (run_status.hpp) to tell which. Progress
  /// comes from the phase files: a missing or corrupt one counts as
  /// absent, and while source_rs.csv is absent the partial snapshot
  /// counts as the in-flight source RS.
  struct Peek {
    struct Cell {
      CellState state = CellState::Pending;
      std::string label;
      std::size_t phases_done = 0;  ///< intact phase files
      std::size_t evals = 0;        ///< their rows (+ the partial RS)
      double best_seconds = std::numeric_limits<double>::infinity();
    };
    std::vector<Cell> cells;
  };
  static Peek peek(const std::string& run_dir);

  std::size_t size() const noexcept { return cells_.size(); }
  CellState state(std::size_t cell) const;
  const std::string& label(std::size_t cell) const;
  const std::string& run_dir() const noexcept { return run_dir_; }

  std::string cell_dir(std::size_t cell) const;
  std::string phase_path(std::size_t cell, const std::string& phase) const;
  std::string partial_rs_path(std::size_t cell) const;

  void mark_running(std::size_t cell);
  /// Records the artifact-bundle checksum and removes the partial RS
  /// snapshot (the completed source_rs.csv supersedes it).
  void mark_done(std::size_t cell, std::uint64_t bundle_checksum);
  void mark_pending(std::size_t cell);

  /// FNV-1a chain over the cell's six phase files, in protocol order.
  /// Throws portatune::Error when any phase file is unreadable.
  std::uint64_t cell_bundle_checksum(std::size_t cell) const;

 private:
  struct Cell {
    CellState state = CellState::Pending;
    std::uint64_t checksum = 0;
    std::string label;
  };

  RunJournal(std::string run_dir, std::vector<Cell> cells)
      : run_dir_(std::move(run_dir)), cells_(std::move(cells)) {}

  /// Shared manifest parser behind open() and peek(); verifies the
  /// checksum footer, magic line, and row shapes, mutates nothing.
  static std::vector<Cell> parse_manifest(const std::string& run_dir);

  void set_state(std::size_t cell, CellState state, std::uint64_t checksum);
  void write_manifest_locked() const;

  std::string run_dir_;
  std::vector<Cell> cells_;
  /// Behind a pointer so the factory functions can move the journal.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

struct JournaledRunOptions {
  std::string run_dir;
  /// False: the run directory must be fresh. True: reopen and skip /
  /// restore what the journal already holds.
  bool resume = false;
  /// Cells run at once on the global pool, the calling thread included
  /// (0 = the pool's width, 1 = inline), as in run_transfer_experiments:
  /// values above the pool width + 1 add no concurrency.
  std::size_t threads = 0;
  /// Periodic checkpoint cadence of each cell's source RS phase.
  std::size_t rs_checkpoint_every = 5;
  /// Cooperative cancellation (graceful shutdown). Cancelled cells stop
  /// at a window boundary with their journal row left `running`; the next
  /// resume demotes them to pending and restores their completed phases.
  CancellationToken cancel{};
};

struct JournaledRunSummary {
  std::size_t cells_total = 0;
  std::size_t cells_restored = 0;   ///< done before this invocation
  std::size_t cells_completed = 0;  ///< newly completed by this invocation
  bool interrupted = false;         ///< cancelled before every cell finished
};

/// run_transfer_experiments with the journal wrapped around it: every
/// cell's phases are persisted as they complete, done cells are restored
/// (and re-finalized) instead of re-run, and cancellation leaves a
/// resumable journal behind. Results come back in job order; interrupted
/// cells are default-constructed (check summary->interrupted). Sets the
/// `run.evals_total` gauge to the run's budget: six phases times each
/// cell's max_evals.
std::vector<TransferExperimentResult> run_transfer_experiments_journaled(
    std::span<const ExperimentJob> jobs, const JournaledRunOptions& opt,
    JournaledRunSummary* summary = nullptr);

}  // namespace portatune::tuner
