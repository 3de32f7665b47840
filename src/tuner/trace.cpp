#include "tuner/trace.hpp"

#include <algorithm>

#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"
#include "tuner/search_options.hpp"

namespace portatune::tuner {

void SearchTrace::record(ParamConfig config, double seconds,
                         std::size_t draw_index) {
  clock_ += seconds;
  entries_.push_back(
      {std::move(config), seconds, clock_, draw_index, obs::wall_unix_now()});
}

void SearchTrace::set_stop_reason(std::string reason) {
  stop_reason_ = std::move(reason);
  if (stop_reason_.empty()) return;
  // Announce and flush: an aborted search must leave its diagnostic on
  // disk even when the process dies before the sink is torn down.
  if (obs::enabled(obs::Severity::Warn))
    obs::emit(obs::make_instant(
        obs::Severity::Warn, "search.abort", "search",
        {{"algorithm", algorithm_},
         {"problem", problem_},
         {"machine", machine_},
         {"reason", stop_reason_},
         {"evals", entries_.size()},
         {"failures", failures_.failures}}));
  obs::flush_default_sink();
  // Aborts ship the black box too — but not cooperative cancellation,
  // which is a *normal* (resumable) exit the shutdown hook already
  // covers, and which every cancelled search in a fan-out would
  // otherwise re-dump.
  if (stop_reason_ != kCancelledStopReason)
    obs::dump_flight_recorder("search.abort");
}

void SearchTrace::note_result(const EvalResult& r) {
  failures_.attempts += r.attempts;
  failures_.overhead_seconds += r.overhead_seconds;
  clock_ += r.overhead_seconds;
  if (r.ok) return;
  ++failures_.failures;
  switch (r.failure_kind) {
    case FailureKind::Transient: ++failures_.transient; break;
    case FailureKind::Timeout: ++failures_.timeouts; break;
    default: ++failures_.deterministic; break;
  }
}

void SearchTrace::restore_entry(ParamConfig config, double seconds,
                                double elapsed, std::size_t draw_index,
                                double wall_unix) {
  entries_.push_back(
      {std::move(config), seconds, elapsed, draw_index, wall_unix});
  clock_ = std::max(clock_, elapsed);
}

double SearchTrace::best_seconds() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : entries_) best = std::min(best, e.seconds);
  return best;
}

const ParamConfig& SearchTrace::best_config() const {
  PT_REQUIRE(!entries_.empty(), "best_config() on empty trace");
  const TraceEntry* best = &entries_.front();
  for (const auto& e : entries_)
    if (e.seconds < best->seconds) best = &e;
  return best->config;
}

double SearchTrace::time_to_best() const {
  return time_to_reach(best_seconds());
}

double SearchTrace::time_to_reach(double threshold) const {
  for (const auto& e : entries_)
    if (e.seconds <= threshold) return e.elapsed;
  return std::numeric_limits<double>::infinity();
}

double SearchTrace::total_time() const { return clock_; }

std::vector<std::pair<double, double>> SearchTrace::best_curve() const {
  std::vector<std::pair<double, double>> curve;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : entries_) {
    best = std::min(best, e.seconds);
    curve.emplace_back(e.elapsed, best);
  }
  return curve;
}

ml::Dataset SearchTrace::to_dataset(const ParamSpace& space) const {
  ml::Dataset data(space.num_params(), space.names());
  for (const auto& e : entries_)
    data.add_row(space.features(e.config), e.seconds);
  return data;
}

}  // namespace portatune::tuner
