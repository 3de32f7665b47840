// `portatune_cli status --run-dir d`: the read-only view of a journaled
// run.
//
// It reads what is finished from the run directory the journal already
// keeps — journal.csv and the checksummed phase files, through
// RunJournal::peek — and what is happening now from the last row of the
// metrics time-series (<run-dir>/metrics_timeseries.jsonl), which the
// process's obs::MetricsSampler appends every period: the row's age is
// the heartbeat, its `run.evals_total` gauge the budget, its
// `eval[.<role>].calls` rates the throughput, its pool and guard gauges
// the live state.
//
// Strictly read-only (it never rewrites the journal the way
// RunJournal::open() does), safe to run against a live experiment, and
// able to tell three stories apart — running (fresh row), complete
// (journal all done), and dead (stale or missing row with unfinished
// cells → print the resume hint).
#pragma once

#include <iosfwd>
#include <string>

namespace portatune::tuner {

/// What `status --run-dir` concluded about a run directory.
enum class RunLiveness { Running, Complete, Dead };

/// Read-only status report of a run directory: journal summary,
/// heartbeat freshness, progress and per-cell table, and — for a dead
/// run — the resume hint. A last time-series row older than
/// `stale_after_seconds` (or no row at all) with unfinished cells means
/// Dead. Throws portatune::Error when the directory holds no journal.
RunLiveness render_run_status(std::ostream& os, const std::string& run_dir,
                              double stale_after_seconds = 10.0);

}  // namespace portatune::tuner
