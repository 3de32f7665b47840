#include "obs/sampler.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace portatune::obs {

namespace {

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Timestamps need fixed-point microseconds: %.9g collapses epoch
/// seconds (~1.7e9) to ~10-second granularity.
std::string render_stamp(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::int64_t current_pid() {
#ifndef _WIN32
  return static_cast<std::int64_t>(getpid());
#else
  return 0;
#endif
}

}  // namespace

MetricsSampler::MetricsSampler(Options options)
    : options_(std::move(options)) {
  options_.period_seconds = std::max(0.01, options_.period_seconds);
  // A writer killed mid-append leaves its last line unterminated; end it
  // so the anchor row below starts a line of its own.
  std::ifstream prev(options_.path, std::ios::binary);
  const bool torn = prev.seekg(-1, std::ios::end) && prev.get() != '\n';
  prev.close();
  out_.open(options_.path, std::ios::app);
  PT_REQUIRE(out_.good(),
             "cannot open metrics time-series for append: " + options_.path);
  if (torn) out_ << "\n";
  sample_now();  // anchor row: rates start from here, not process start
  thread_ = std::thread([this] { run(); });
}

MetricsSampler::~MetricsSampler() {
  {
    std::lock_guard lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final row: short-lived runs still get a complete closing sample.
  try {
    sample_now();
  } catch (const std::exception&) {
    // Destructor: a full disk must not turn teardown into a crash.
  }
}

void MetricsSampler::run() {
  std::unique_lock lock(stop_mutex_);
  while (!stop_) {
    const auto period = std::chrono::duration<double>(
        options_.period_seconds);
    if (stop_cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    sample_now();
    lock.lock();
  }
}

void MetricsSampler::sample_now() {
  std::lock_guard lock(sample_mutex_);
  sample_locked();
  if (options_.on_tick) options_.on_tick();
}

void MetricsSampler::sample_locked() {
  MetricsRegistry& registry = options_.registry != nullptr
                                  ? *options_.registry
                                  : MetricsRegistry::current();
  const MetricsSnapshot snapshot = registry.snapshot();
  const double t_mono = mono_now();
  const double t_wall =
      static_cast<double>(wall_micros_now()) / 1e6;
  const double dt = last_mono_ >= 0.0 ? t_mono - last_mono_ : 0.0;

  std::map<std::string, double> rates;
  if (dt > 0.0) {
    for (const auto& [name, value] : snapshot.counters) {
      const auto it = last_counters_.find(name);
      // A counter first seen this tick ramps from zero; a counter that
      // shrank was reset (registry reset between searches) and restarts.
      const std::uint64_t prev =
          it != last_counters_.end() && it->second <= value ? it->second
                                                            : 0;
      rates[name] = static_cast<double>(value - prev) / dt;
    }
  }
  last_counters_.clear();
  for (const auto& [name, value] : snapshot.counters)
    last_counters_[name] = value;
  last_mono_ = t_mono;

  out_ << render_row(snapshot, seq_, t_wall, t_mono, dt, rates) << "\n";
  out_.flush();  // each row must survive a SIGKILL right after the tick
  ++seq_;
}

std::uint64_t MetricsSampler::samples_written() const noexcept {
  std::lock_guard lock(sample_mutex_);
  return seq_;
}

std::string MetricsSampler::render_row(
    const MetricsSnapshot& snapshot, std::uint64_t seq, double t_wall,
    double t_mono, double dt,
    const std::map<std::string, double>& rates) {
  std::string out = "{\"seq\":" + std::to_string(seq);
  out += ",\"pid\":" + std::to_string(current_pid());
  out += ",\"t_wall\":" + render_stamp(t_wall);
  out += ",\"t_mono\":" + render_stamp(t_mono);
  out += ",\"dt\":" + render_double(dt);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json::escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"rates\":{";
  first = true;
  for (const auto& [name, value] : rates) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json::escape(name) + "\":" + render_double(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json::escape(name) + "\":" + render_double(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json::escape(h.name) + "\":{";
    out += "\"count\":" + std::to_string(h.count);
    out += ",\"mean\":" + render_double(h.mean);
    out += ",\"min\":" + render_double(h.min);
    out += ",\"max\":" + render_double(h.max);
    out += ",\"p50\":" + render_double(h.p50);
    out += ",\"p95\":" + render_double(h.p95);
    out += ",\"p99\":" + render_double(h.p99);
    out += "}";
  }
  out += "}}";
  return out;
}

std::optional<json::Value> read_last_timeseries_row(
    const std::string& path) {
  try {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    const std::uintmax_t size = std::filesystem::file_size(path);
    for (std::uintmax_t window = 64 << 10;; window *= 2) {
      const std::uintmax_t start = size > window ? size - window : 0;
      std::string tail(static_cast<std::size_t>(size - start), '\0');
      is.seekg(static_cast<std::streamoff>(start));
      if (!is.read(tail.data(), static_cast<std::streamsize>(tail.size())))
        return std::nullopt;
      // A line is complete once its newline is written; whatever follows
      // the last newline is still being appended, or was torn by a kill.
      std::size_t end = tail.rfind('\n');
      while (end != std::string::npos) {
        const std::size_t nl = end == 0 ? std::string::npos
                                        : tail.rfind('\n', end - 1);
        if (nl == std::string::npos && start > 0) break;  // cut by the window
        const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
        try {
          json::Value row =
              json::Value::parse(std::string_view(tail).substr(
                  begin, end - begin));
          const json::Value* t_wall = row.find("t_wall");
          if (t_wall != nullptr && t_wall->is_number()) return row;
        } catch (const Error&) {
          // A torn row, terminated by the next writer: keep looking.
        }
        end = nl;
      }
      if (start == 0) return std::nullopt;
    }
  } catch (const std::exception&) {
    return std::nullopt;  // vanished or unreadable mid-read
  }
}

}  // namespace portatune::obs
