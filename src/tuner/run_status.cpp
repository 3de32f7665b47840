#include "tuner/run_status.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/sampler.hpp"
#include "support/error.hpp"
#include "tuner/run_journal.hpp"

namespace portatune::tuner {

namespace {

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string format_seconds(double s) {
  char buf[64];
  if (!std::isfinite(s)) return "?";
  if (s >= 3600.0)
    std::snprintf(buf, sizeof buf, "%.1fh", s / 3600.0);
  else if (s >= 60.0)
    std::snprintf(buf, sizeof buf, "%.1fm", s / 60.0);
  else
    std::snprintf(buf, sizeof buf, "%.1fs", s);
  return buf;
}

/// `v[key]` when both exist and it is a number, else nullptr.
const obs::json::Value* number(const obs::json::Value* v,
                               std::string_view key) {
  const obs::json::Value* n = v != nullptr ? v->find(key) : nullptr;
  return n != nullptr && n->is_number() ? n : nullptr;
}

/// Evaluations per second over the row's tick: the summed rates of the
/// observed evaluators' `eval[.<role>].calls` counters. Restored phases
/// call no evaluator, so they cannot inflate it.
double eval_rate(const obs::json::Value* rates) {
  double rate = 0.0;
  if (rates != nullptr && rates->is_object())
    for (const auto& [name, v] : rates->as_object())
      if (name.starts_with("eval.") && name.ends_with(".calls") &&
          v.is_number())
        rate += v.as_number();
  return rate;
}

}  // namespace

RunLiveness render_run_status(std::ostream& os, const std::string& run_dir,
                              double stale_after_seconds) {
  PT_REQUIRE(RunJournal::exists(run_dir),
             "'" + run_dir +
                 "' holds no run journal (journal.csv) — not a run "
                 "directory, or the run never started");
  RunJournal::Peek peek;
  try {
    peek = RunJournal::peek(run_dir);
  } catch (const Error&) {
    // The manifest is replaced atomically, so this cannot see a torn
    // one; the retry covers filesystems with weaker rename semantics.
    peek = RunJournal::peek(run_dir);
  }

  std::size_t done = 0, running = 0, pending = 0, evals = 0;
  double best = std::numeric_limits<double>::infinity();
  for (const RunJournal::Peek::Cell& cell : peek.cells) {
    switch (cell.state) {
      case CellState::Done: ++done; break;
      case CellState::Running: ++running; break;
      case CellState::Pending: ++pending; break;
    }
    evals += cell.evals;
    best = std::min(best, cell.best_seconds);
  }
  const bool all_done = done == peek.cells.size();

  const std::string series = run_dir + "/" + std::string(obs::kTimeseriesFile);
  const std::optional<obs::json::Value> last =
      obs::read_last_timeseries_row(series);
  const obs::json::Value* row = last ? &*last : nullptr;
  const obs::json::Value* gauges = row ? row->find("gauges") : nullptr;
  const double heartbeat_age =
      row ? obs::wall_unix_now() - row->at("t_wall").as_number()
          : std::numeric_limits<double>::infinity();

  RunLiveness liveness = RunLiveness::Dead;
  if (all_done)
    liveness = RunLiveness::Complete;
  else if (row && heartbeat_age <= stale_after_seconds)
    liveness = RunLiveness::Running;

  os << "run:       " << run_dir << "\n";
  os << "journal:   " << peek.cells.size() << " cells — " << done
     << " done, " << running << " running, " << pending << " pending\n";
  if (row) {
    os << "heartbeat: " << format_seconds(heartbeat_age) << " ago";
    const obs::json::Value* uptime = number(row, "t_mono");
    if (number(row, "pid") != nullptr && uptime != nullptr) {
      std::uint64_t pid = 0;
      try {
        pid = obs::json::size_member(*row, "pid");
      } catch (const Error& e) {
        throw Error(series + ": " + e.what());
      }
      os << " (pid " << pid << ", uptime "
         << format_seconds(uptime->as_number()) << ")";
    }
    os << "\n";
  } else {
    os << "heartbeat: none found (" << obs::kTimeseriesFile
       << " missing — run predates telemetry, was started with "
          "telemetry off, or died before the first beat)\n";
  }

  const obs::json::Value* total = number(gauges, "run.evals_total");
  os << "progress:  evals " << evals;
  if (total != nullptr && total->as_number() > 0.0) {
    char pct[40];
    std::snprintf(pct, sizeof pct, "/%.0f (%.1f%%)", total->as_number(),
                  100.0 * static_cast<double>(evals) / total->as_number());
    os << pct;
  }
  if (std::isfinite(best)) os << ", best " << render_double(best) << " s";
  if (const double rate = eval_rate(row ? row->find("rates") : nullptr);
      rate > 0.0) {
    os << ", " << render_double(rate) << " evals/s";
    if (total != nullptr && liveness == RunLiveness::Running)
      os << ", ETA "
         << format_seconds(
                std::max(0.0, total->as_number() -
                                  static_cast<double>(evals)) /
                rate);
  }
  os << "\n";
  const obs::json::Value* busy = number(gauges, "pool.workers_busy");
  const obs::json::Value* depth = number(gauges, "pool.queue_depth");
  if (busy != nullptr && depth != nullptr)
    os << "pool:      " << busy->as_number() << " workers busy, queue depth "
       << depth->as_number() << "\n";
  const obs::json::Value* trust = number(gauges, "guard.trust");
  const obs::json::Value* state = number(gauges, "guard.state");
  if (trust != nullptr && state != nullptr)
    os << "guard:     trust " << render_double(trust->as_number())
       << ", state " << state->as_number() << "\n";

  os << "cells:\n";
  for (std::size_t i = 0; i < peek.cells.size(); ++i) {
    const RunJournal::Peek::Cell& cell = peek.cells[i];
    char head[48];
    std::snprintf(head, sizeof head, "  [%03zu] %-8s", i,
                  to_string(cell.state));
    os << head << cell.label;
    // Phases complete in protocol order: a running cell is inside the
    // first one without a file.
    if (cell.state == CellState::Running &&
        cell.phases_done < kNumExperimentPhases)
      os << "  phase=" << kExperimentPhases[cell.phases_done];
    os << "  " << cell.phases_done << "/" << kNumExperimentPhases
       << " phases  " << cell.evals << " evals";
    if (std::isfinite(cell.best_seconds))
      os << "  best=" << render_double(cell.best_seconds) << " s";
    os << "\n";
  }

  switch (liveness) {
    case RunLiveness::Complete:
      os << "status:    COMPLETE — all cells done\n";
      break;
    case RunLiveness::Running:
      os << "status:    RUNNING\n";
      break;
    case RunLiveness::Dead:
      if (row)
        os << "status:    DEAD — no heartbeat for "
           << format_seconds(heartbeat_age) << " (threshold "
           << format_seconds(stale_after_seconds)
           << ") with unfinished cells\n";
      else
        os << "status:    DEAD — unfinished cells and no heartbeat\n";
      os << "resume:    re-run the same experiment command with "
            "--run-dir '"
         << run_dir << "' --resume\n";
      break;
  }
  return liveness;
}

}  // namespace portatune::tuner
