// Live metrics time-series: the sampler half of run telemetry.
//
// A MetricsSampler owns one background thread that periodically copies
// MetricsRegistry::current() into an append-only JSONL file — one row
// per tick:
//
//   {"seq":3,"pid":1234,"t_wall":1754630000.2,"t_mono":3.004,
//    "dt":1.001,"counters":{...},"rates":{...},"gauges":{...},
//    "histograms":{"eval.seconds":{"count":40,"mean":...,"p50":...}}}
//
// `rates` are counter deltas divided by the tick interval (evals/sec,
// prune rate, cache traffic); histogram rows carry the interpolated
// p50/p95/p99 so queue-wait and latency distributions are watchable as
// they move. Appending (rather than atomic whole-file rewrites) is
// deliberate: the series grows unbounded, a SIGKILL can only tear the
// final line, and every reader of our JSONL formats is lenient.
//
// Dormant-path guarantee: a run that doesn't construct a sampler pays
// nothing — no thread, no clock reads, no file. The hot paths the
// sampler *observes* are the same relaxed-atomic instruments they
// always were; sampling is strictly reader-side.
//
// The on_tick hook runs after each sample on the sampler thread. The
// journaled-run telemetry uses it to piggyback the flight-recorder's
// periodic dump on the same thread, so a SIGKILL'd run leaves both a
// time-series and a black box at most one period old.
//
// The series is also the process heartbeat: read_last_timeseries_row()
// gives `portatune_cli status` the newest row — its age says whether the
// writer is alive, its gauges and rates say what it is doing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace portatune::obs {

/// The conventional file name of the series inside a run or data dir.
inline constexpr std::string_view kTimeseriesFile =
    "metrics_timeseries.jsonl";

class MetricsSampler {
 public:
  struct Options {
    /// Append target, conventionally `<run-dir>/metrics_timeseries.jsonl`.
    std::string path;
    /// Tick cadence; clamped to >= 10ms.
    double period_seconds = 1.0;
    /// Registry to sample (nullptr = the registry current at each tick).
    MetricsRegistry* registry = nullptr;
    /// Invoked after each row is appended, on the sampler thread.
    std::function<void()> on_tick;
  };

  /// Opens the file (appending; the parent directory must exist), writes
  /// an immediate first row to anchor the series, and starts the thread.
  /// A torn final line left by a killed writer is terminated first, so it
  /// cannot swallow the anchor row. Throws portatune::Error when the file
  /// cannot be opened.
  explicit MetricsSampler(Options options);
  /// Stops the thread and writes one final row, so even a sub-period run
  /// ends with a complete sample.
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Take one sample synchronously on the calling thread (tests; final
  /// flush). Thread-safe against the background tick.
  void sample_now();

  std::uint64_t samples_written() const noexcept;

  /// Render one time-series row (without trailing newline). Exposed for
  /// tests; `seq`/`dt`/rates bookkeeping is the caller's.
  static std::string render_row(const MetricsSnapshot& snapshot,
                                std::uint64_t seq, double t_wall,
                                double t_mono, double dt,
                                const std::map<std::string, double>& rates);

 private:
  void run();
  void sample_locked();

  Options options_;
  std::ofstream out_;
  mutable std::mutex sample_mutex_;  ///< serialises sample_locked callers
  std::uint64_t seq_ = 0;
  double last_mono_ = -1.0;
  std::map<std::string, std::uint64_t> last_counters_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// The newest complete row of a time-series file. Only a bounded tail is
/// read (widened while it holds no complete row), so the cost does not
/// grow with the run. A torn final line — a SIGKILL mid-append — is
/// skipped, so after a resume the row is the newest pid's. nullopt when
/// the file is missing or holds no complete row; never throws.
std::optional<json::Value> read_last_timeseries_row(const std::string& path);

}  // namespace portatune::obs
