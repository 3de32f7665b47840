#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <limits>

#include "support/error.hpp"

namespace portatune::obs {

namespace {

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Lock-free running min/max via CAS.
void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::atomic<MetricsRegistry*> g_current{nullptr};

}  // namespace

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(boundaries_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  PT_REQUIRE(std::is_sorted(boundaries_.begin(), boundaries_.end()),
             "histogram boundaries must be ascending");
}

void Histogram::observe(double v) noexcept {
  const auto it =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), v);
  buckets_[static_cast<std::size_t>(it - boundaries_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> Histogram::default_seconds_boundaries() {
  std::vector<double> b;
  for (double v = 1e-6; v <= 100.0; v *= 10.0) {
    b.push_back(v);
    b.push_back(v * 3.0);
  }
  return b;
}

double HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[i];
    if (static_cast<double>(seen) < target) continue;
    // The target observation falls in bucket i: interpolate between its
    // edges. Clamp the edges to [min, max] so sparse outer buckets don't
    // invent values the run never observed.
    double lo = i == 0 ? min : boundaries[i - 1];
    double hi = i < boundaries.size() ? boundaries[i] : max;
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi <= lo) return lo;
    const double frac =
        (target - before) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return max;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> boundaries) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (boundaries.empty())
      boundaries = Histogram::default_seconds_boundaries();
    slot = std::make_unique<Histogram>(std::move(boundaries));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.emplace_back(name, c->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.mean = h->mean();
    hs.min = hs.count > 0 ? h->min() : 0.0;
    hs.max = hs.count > 0 ? h->max() : 0.0;
    hs.boundaries = h->boundaries();
    hs.buckets = h->bucket_counts();
    hs.p50 = hs.percentile(0.50);
    hs.p95 = hs.percentile(0.95);
    hs.p99 = hs.percentile(0.99);
    out.histograms.push_back(std::move(hs));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked, like the shutdown domain: a thread still running
  // while the process exits may add to a counter after static destructors
  // run.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry& MetricsRegistry::current() {
  MetricsRegistry* r = g_current.load(std::memory_order_acquire);
  return r != nullptr ? *r : global();
}

ScopedMetricsRedirect::ScopedMetricsRedirect(MetricsRegistry& registry)
    : previous_(g_current.load(std::memory_order_acquire)) {
  g_current.store(&registry, std::memory_order_release);
}

ScopedMetricsRedirect::~ScopedMetricsRedirect() {
  g_current.store(previous_, std::memory_order_release);
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + render_double(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + h.name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + render_double(h.sum) +
           ",\"mean\":" + render_double(h.mean) +
           ",\"min\":" + render_double(h.min) +
           ",\"max\":" + render_double(h.max) +
           ",\"p50\":" + render_double(h.p50) +
           ",\"p95\":" + render_double(h.p95) +
           ",\"p99\":" + render_double(h.p99) + ",\"boundaries\":[";
    for (std::size_t i = 0; i < h.boundaries.size(); ++i) {
      if (i > 0) out += ",";
      out += render_double(h.boundaries[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

json::Value MetricsSnapshot::to_value() const {
  using json::Value;
  using Members = std::vector<std::pair<std::string, Value>>;
  Members counter_members;
  counter_members.reserve(counters.size());
  for (const auto& [name, v] : counters)
    counter_members.emplace_back(
        name, Value::make_number(static_cast<double>(v)));
  Members gauge_members;
  gauge_members.reserve(gauges.size());
  for (const auto& [name, v] : gauges)
    gauge_members.emplace_back(name, Value::make_number(v));
  Members histogram_members;
  histogram_members.reserve(histograms.size());
  for (const auto& h : histograms) {
    Members m;
    m.emplace_back("count",
                   Value::make_number(static_cast<double>(h.count)));
    m.emplace_back("sum", Value::make_number(h.sum));
    m.emplace_back("mean", Value::make_number(h.mean));
    m.emplace_back("min", Value::make_number(h.min));
    m.emplace_back("max", Value::make_number(h.max));
    m.emplace_back("p50", Value::make_number(h.p50));
    m.emplace_back("p95", Value::make_number(h.p95));
    m.emplace_back("p99", Value::make_number(h.p99));
    histogram_members.emplace_back(h.name,
                                   Value::make_object(std::move(m)));
  }
  Members top;
  top.emplace_back("counters", Value::make_object(std::move(counter_members)));
  top.emplace_back("gauges", Value::make_object(std::move(gauge_members)));
  top.emplace_back("histograms",
                   Value::make_object(std::move(histogram_members)));
  return Value::make_object(std::move(top));
}

void MetricsSnapshot::write_table(std::ostream& os) const {
  std::size_t width = 8;
  for (const auto& [name, v] : counters) width = std::max(width, name.size());
  for (const auto& [name, v] : gauges) width = std::max(width, name.size());
  for (const auto& h : histograms) width = std::max(width, h.name.size());
  const int w = static_cast<int>(width);
  for (const auto& [name, v] : counters)
    os << std::left << std::setw(w) << name << "  counter  " << v << "\n";
  for (const auto& [name, v] : gauges)
    os << std::left << std::setw(w) << name << "  gauge    "
       << render_double(v) << "\n";
  for (const auto& h : histograms)
    os << std::left << std::setw(w) << h.name << "  histo    count="
       << h.count << " mean=" << render_double(h.mean)
       << " min=" << render_double(h.min)
       << " max=" << render_double(h.max)
       << " p50=" << render_double(h.p50)
       << " p95=" << render_double(h.p95)
       << " p99=" << render_double(h.p99) << "\n";
}

}  // namespace portatune::obs
