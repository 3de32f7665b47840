#include "tuner/run_journal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"
#include "support/thread_pool.hpp"
#include "tuner/persistence.hpp"

namespace portatune::tuner {

namespace {

constexpr std::string_view kJournalMagic = "# portatune-journal v1,";
constexpr std::string_view kJournalHeader = "state,checksum,label";

std::string manifest_path(const std::string& run_dir) {
  return run_dir + "/journal.csv";
}

std::string cell_dir_name(std::size_t cell) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell-%03zu", cell);
  return buf;
}

std::string phase_file(const std::string& run_dir, std::size_t cell,
                       std::string_view phase) {
  return run_dir + "/" + cell_dir_name(cell) + "/" + std::string(phase) +
         ".csv";
}

constexpr std::string_view kPartialRsPhase = "source_rs.partial";

void emit_cell_event(const char* name, std::size_t cell,
                     const std::string& label, const char* detail,
                     obs::Severity sev = obs::Severity::Info) {
  if (!obs::enabled(sev)) return;
  obs::emit(obs::make_instant(sev, name, "run",
                              {{"cell", static_cast<std::uint64_t>(cell)},
                               {"label", label},
                               {"detail", detail}}));
}

}  // namespace

const char* to_string(CellState s) noexcept {
  switch (s) {
    case CellState::Pending: return "pending";
    case CellState::Running: return "running";
    case CellState::Done: return "done";
  }
  return "?";
}

bool RunJournal::exists(const std::string& run_dir) {
  return file_exists(manifest_path(run_dir));
}

RunJournal RunJournal::create(std::string run_dir,
                              std::vector<std::string> labels) {
  PT_REQUIRE(!labels.empty(), "a journaled run needs at least one cell");
  if (exists(run_dir))
    throw Error("run directory '" + run_dir +
                "' already contains a journal — resume it instead of "
                "overwriting a resumable run");
  ensure_directory(run_dir);
  std::vector<Cell> cells(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    cells[i].label = std::move(labels[i]);
    ensure_directory(run_dir + "/" + cell_dir_name(i));
  }
  RunJournal journal(std::move(run_dir), std::move(cells));
  journal.write_manifest_locked();
  return journal;
}

std::vector<RunJournal::Cell> RunJournal::parse_manifest(
    const std::string& run_dir) {
  const std::string payload = strip_verified_checksum_footer(
      read_file(manifest_path(run_dir)), "journal");
  std::istringstream is(payload);
  std::string line;
  PT_REQUIRE(std::getline(is, line) && line.rfind(kJournalMagic, 0) == 0,
             "'" + run_dir + "/journal.csv' is not a portatune journal");
  // The declared count is only compared, never allocated: the file may
  // claim any number of cells.
  const auto ncells = parse_number<std::size_t>(
      line.substr(kJournalMagic.size()), "journal magic line cell count");
  PT_REQUIRE(std::getline(is, line) && line == kJournalHeader,
             "journal header row is missing or malformed");

  std::vector<Cell> cells;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::string where =
        "journal row " + std::to_string(cells.size() + 1);
    const auto c1 = line.find(',');
    const auto c2 = c1 == std::string::npos ? std::string::npos
                                            : line.find(',', c1 + 1);
    PT_REQUIRE(c2 != std::string::npos, where + " is malformed: " + line);
    Cell cell;
    const std::string state = line.substr(0, c1);
    if (state == "pending") cell.state = CellState::Pending;
    else if (state == "running") cell.state = CellState::Running;
    else if (state == "done") cell.state = CellState::Done;
    else throw Error(where + " has an unknown cell state '" + state + "'");
    const std::string hex = line.substr(c1 + 1, c2 - c1 - 1);
    PT_REQUIRE(hex.size() == 16, where + " has a malformed checksum");
    cell.checksum = parse_number<std::uint64_t>(hex, where + " checksum", 16);
    cell.label = line.substr(c2 + 1);  // labels may themselves hold commas
    cells.push_back(std::move(cell));
  }
  PT_REQUIRE(cells.size() == ncells,
             "journal row count does not match its declared cell count");
  return cells;
}

RunJournal::Peek RunJournal::peek(const std::string& run_dir) {
  std::vector<Cell> manifest = parse_manifest(run_dir);
  Peek out;
  out.cells.resize(manifest.size());
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    Peek::Cell& cell = out.cells[i];
    cell.state = manifest[i].state;
    cell.label = std::move(manifest[i].label);
    const auto add = [&cell](const CheckpointSummary& s) {
      cell.evals += s.rows;
      cell.best_seconds = std::min(cell.best_seconds, s.best_seconds);
    };
    for (std::size_t p = 0; p < kNumExperimentPhases; ++p) {
      if (const auto s = summarize_checkpoint_csv(
              phase_file(run_dir, i, kExperimentPhases[p]))) {
        ++cell.phases_done;
        add(*s);
      } else if (p == 0) {
        // The in-flight source RS; its phase file, once written,
        // supersedes the snapshot, so no evaluation counts twice.
        if (const auto partial = summarize_checkpoint_csv(
                phase_file(run_dir, i, kPartialRsPhase)))
          add(*partial);
      }
    }
  }
  return out;
}

RunJournal RunJournal::open(std::string run_dir,
                            std::vector<std::string> labels) {
  std::vector<Cell> cells = parse_manifest(run_dir);
  PT_REQUIRE(cells.size() == labels.size(),
             "journal has " + std::to_string(cells.size()) +
                 " cells but the job list has " +
                 std::to_string(labels.size()) +
                 " — resume must use the same jobs");
  for (std::size_t i = 0; i < cells.size(); ++i)
    PT_REQUIRE(cells[i].label == labels[i],
               "journal cell " + std::to_string(i) + " is '" +
                   cells[i].label + "' but the job list says '" + labels[i] +
                   "' — resume must use the same jobs in the same order");

  RunJournal journal(std::move(run_dir), std::move(cells));
  // Crash recovery: a `running` row is a cell the dying process never
  // finished; a `done` row whose artifact bundle no longer matches its
  // recorded checksum cannot be trusted. Both demote to pending (their
  // intact phase files are still picked up by the restore hooks).
  for (std::size_t i = 0; i < journal.cells_.size(); ++i) {
    Cell& cell = journal.cells_[i];
    if (cell.state == CellState::Running) {
      emit_cell_event("run.cell_demoted", i, cell.label,
                      "interrupted mid-cell", obs::Severity::Warn);
      cell.state = CellState::Pending;
      cell.checksum = 0;
    } else if (cell.state == CellState::Done) {
      bool ok = false;
      try {
        ok = journal.cell_bundle_checksum(i) == cell.checksum;
      } catch (const Error&) {
        ok = false;  // a phase file is missing or unreadable
      }
      if (!ok) {
        emit_cell_event("run.cell_demoted", i, cell.label,
                        "artifact bundle failed verification",
                        obs::Severity::Warn);
        cell.state = CellState::Pending;
        cell.checksum = 0;
      }
    }
    ensure_directory(journal.run_dir_ + "/" + cell_dir_name(i));
  }
  journal.write_manifest_locked();
  return journal;
}

CellState RunJournal::state(std::size_t cell) const {
  std::lock_guard lock(*mutex_);
  return cells_.at(cell).state;
}

const std::string& RunJournal::label(std::size_t cell) const {
  return cells_.at(cell).label;  // immutable after construction
}

std::string RunJournal::cell_dir(std::size_t cell) const {
  return run_dir_ + "/" + cell_dir_name(cell);
}

std::string RunJournal::phase_path(std::size_t cell,
                                   const std::string& phase) const {
  return phase_file(run_dir_, cell, phase);
}

std::string RunJournal::partial_rs_path(std::size_t cell) const {
  return phase_file(run_dir_, cell, kPartialRsPhase);
}

void RunJournal::mark_running(std::size_t cell) {
  set_state(cell, CellState::Running, 0);
}

void RunJournal::mark_done(std::size_t cell, std::uint64_t bundle_checksum) {
  set_state(cell, CellState::Done, bundle_checksum);
  std::error_code ec;
  std::filesystem::remove(partial_rs_path(cell), ec);
}

void RunJournal::mark_pending(std::size_t cell) {
  set_state(cell, CellState::Pending, 0);
}

void RunJournal::set_state(std::size_t cell, CellState state,
                           std::uint64_t checksum) {
  {
    std::lock_guard lock(*mutex_);
    cells_.at(cell).state = state;
    cells_.at(cell).checksum = checksum;
    write_manifest_locked();
  }
  emit_cell_event("run.cell_state", cell, cells_[cell].label,
                  to_string(state));
}

void RunJournal::write_manifest_locked() const {
  std::ostringstream os;
  os << kJournalMagic << cells_.size() << "\n" << kJournalHeader << "\n";
  for (const Cell& cell : cells_)
    os << to_string(cell.state) << ',' << hex16(cell.checksum) << ','
       << cell.label << "\n";
  atomic_write_file(manifest_path(run_dir_),
                    append_checksum_footer(os.str()));
}

std::uint64_t RunJournal::cell_bundle_checksum(std::size_t cell) const {
  std::uint64_t h = 0x706f727461747556ULL;  // arbitrary fixed chain seed
  for (const char* phase : kExperimentPhases)
    h = hash_combine(h, hash_bytes(read_file(phase_path(cell, phase))));
  return h;
}

std::vector<TransferExperimentResult> run_transfer_experiments_journaled(
    std::span<const ExperimentJob> jobs, const JournaledRunOptions& opt,
    JournaledRunSummary* summary) {
  PT_REQUIRE(!opt.run_dir.empty(), "a journaled run needs a run directory");
  if (jobs.empty()) {
    if (summary != nullptr) *summary = {};
    return {};
  }
  std::vector<std::string> labels;
  labels.reserve(jobs.size());
  for (const ExperimentJob& job : jobs) labels.push_back(job.label);
  RunJournal journal = opt.resume
                           ? RunJournal::open(opt.run_dir, std::move(labels))
                           : RunJournal::create(opt.run_dir,
                                                std::move(labels));

  std::vector<TransferExperimentResult> out(jobs.size());
  std::atomic<bool> interrupted{false};
  std::atomic<std::size_t> completed{0};
  std::size_t restored = 0;
  for (std::size_t i = 0; i < journal.size(); ++i)
    if (journal.state(i) == CellState::Done) ++restored;
  // The budget `status` measures progress against: six searches per
  // cell, each capped at the cell's max_evals.
  double evals_total = 0.0;
  for (const ExperimentJob& job : jobs)
    evals_total += static_cast<double>(kNumExperimentPhases *
                                       job.settings.max_evals);
  obs::MetricsRegistry::current().gauge("run.evals_total").set(evals_total);

  const auto run_job = [&](std::size_t i) {
    const ExperimentJob& job = jobs[i];
    PT_REQUIRE(job.make_source && job.make_target,
               "experiment job '" + job.label + "' is missing a factory");
    obs::ScopedTimer cell_span("experiment.cell", "experiment",
                               {{"label", job.label},
                                {"cell", static_cast<std::uint64_t>(i)}});
    if (journal.state(i) == CellState::Done) {
      // Restore: load the six verified phase artifacts and recompute the
      // derived metrics — a pure function of the traces, so the restored
      // result matches what the original run reported.
      EvaluatorPtr source = job.make_source();
      const ParamSpace& space = source->space();
      TransferExperimentResult r;
      SearchTrace* slots[kNumExperimentPhases] = {
          &r.source_rs, &r.target_rs, &r.pruned,
          &r.biased,    &r.pruned_mf, &r.biased_mf};
      for (std::size_t p = 0; p < kNumExperimentPhases; ++p)
        *slots[p] =
            load_checkpoint_csv(journal.phase_path(i, kExperimentPhases[p]),
                                space)
                .trace;
      finalize_transfer_result(r);
      out[i] = std::move(r);
      return;
    }
    if (opt.cancel.cancelled()) {
      interrupted.store(true, std::memory_order_relaxed);
      return;
    }
    journal.mark_running(i);
    EvaluatorPtr source = job.make_source();
    EvaluatorPtr target = job.make_target();
    const ParamSpace& space = source->space();

    ExperimentSettings settings = job.settings;
    settings.cancel = opt.cancel;
    settings.hooks.restore_phase =
        [&journal, &space, i](const std::string& phase)
        -> std::optional<SearchTrace> {
      const std::string path = journal.phase_path(i, phase);
      if (!file_exists(path)) return std::nullopt;
      return load_checkpoint_csv(path, space).trace;
    };
    settings.hooks.phase_done = [&journal, &space, i](
                                    const std::string& phase,
                                    const SearchTrace& trace) {
      SearchCheckpoint snap;
      snap.trace = trace;
      snap.draws = trace.size();  // never resumed; recorded for the format
      save_checkpoint_csv(journal.phase_path(i, phase), snap, space);
    };
    settings.checkpoint_every = opt.rs_checkpoint_every;
    settings.on_checkpoint = [&journal, &space,
                              i](const SearchCheckpoint& snap) {
      save_checkpoint_csv(journal.partial_rs_path(i), snap, space);
    };
    // A partial source RS resumes only when the phase itself is not
    // restored whole from its file.
    std::optional<SearchCheckpoint> rs_snapshot;
    if (!file_exists(journal.phase_path(i, "source_rs")) &&
        file_exists(journal.partial_rs_path(i))) {
      rs_snapshot = load_checkpoint_csv(journal.partial_rs_path(i), space);
      settings.resume = &*rs_snapshot;
    }

    out[i] = run_transfer_experiment(*source, *target, settings);
    if (out[i].interrupted) {
      // Leave the row `running`: open() demotes it to pending and the
      // phase files written so far are restored on resume.
      interrupted.store(true, std::memory_order_relaxed);
      return;
    }
    journal.mark_done(i, journal.cell_bundle_checksum(i));
    completed.fetch_add(1, std::memory_order_relaxed);
  };

  // The same one-call fan-out on the global pool as
  // run_transfer_experiments.
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(0, jobs.size(), run_job,
                    opt.threads != 0 ? opt.threads : pool.size());

  if (summary != nullptr) {
    summary->cells_total = jobs.size();
    summary->cells_restored = restored;
    summary->cells_completed = completed.load();
    summary->interrupted = interrupted.load();
  }
  return out;
}

}  // namespace portatune::tuner
