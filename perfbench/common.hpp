// Shared pieces of the benchmark driver: options, the result being built,
// timing and percentile helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/stats.hpp"

namespace perfbench {

using portatune::median;
using portatune::quantile;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string references;  ///< transfer digests (references.json)
  std::string cli;         ///< portatune_cli binary (service daemon)
  std::size_t threads = 1; ///< nproc
};

/// Seconds on the monotonic clock.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one run reports: named metrics with units, the sample count behind
/// each percentile, and the correctness tally.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::size_t>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks, for the log

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
  /// A failed check that is not one attempted unit (cell, op).
  void error(const std::string& why) { errors.push_back(why); }
  bool correct() const { return failed == 0 && errors.empty(); }

  /// Add the q-quantile (linear interpolation between order statistics)
  /// of `values` as `name`, scaled by `scale`. Refuses, as a failed check,
  /// a percentile with fewer than ten samples beyond it.
  void percentile(const std::string& name, std::span<const double> values,
                  double q, double scale, const std::string& unit);
};

/// Peak resident set of process `pid` (0 = this process), in MiB.
double peak_rss_mb(int pid = 0);

/// The two workloads: transfer-grid and service-mixed.
Report run_transfer(const Options& opt);
Report run_service(const Options& opt);
/// Recompute every transfer-grid reference digest into opt.references.
int write_references(const Options& opt);

}  // namespace perfbench
