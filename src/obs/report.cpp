#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace portatune::obs {

namespace {

const Field* find_field(const Event& e, std::string_view key) {
  for (const auto& f : e.fields)
    if (f.key == key) return &f;
  return nullptr;
}

double field_number(const Event& e, std::string_view key, double fallback) {
  const Field* f = find_field(e, key);
  if (f == nullptr || f->value.empty()) return fallback;
  return std::strtod(f->value.c_str(), nullptr);
}

bool field_is_true(const Event& e, std::string_view key) {
  const Field* f = find_field(e, key);
  return f != nullptr && f->value == "true";
}

/// A per-evaluation record: category "eval" plus an outcome field. This
/// matches ObservedEvaluator's events but not the batch-window or
/// retry-chain spans that share the category.
bool is_eval_event(const Event& e) {
  return e.category == "eval" && find_field(e, "ok") != nullptr;
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", s);
  return buf;
}

void pad_to(std::ostream& os, const std::string& s, std::size_t width) {
  os << s;
  for (std::size_t i = s.size(); i < width; ++i) os << ' ';
}

void pad_left(std::ostream& os, const std::string& s, std::size_t width) {
  for (std::size_t i = s.size(); i < width; ++i) os << ' ';
  os << s;
}

/// json::size_member(obj, key) of a value read from `file`, which a
/// failure names.
std::uint64_t count_in(const std::string& file, const json::Value& obj,
                       std::string_view key) {
  try {
    return json::size_member(obj, key);
  } catch (const Error& e) {
    throw Error(file + ": " + e.what());
  }
}

}  // namespace

Report analyze_events(std::span<const Event> events) {
  Report rep;
  rep.events = events.size();
  if (events.empty()) return rep;

  // Index span slices by id so causal chains can be walked regardless of
  // emit order (parents are emitted after their children).
  std::unordered_map<std::uint64_t, std::size_t> span_index;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.span_id != 0 && e.duration_seconds >= 0.0)
      span_index.emplace(e.span_id, i);
  }

  // Direct-child time per span (for self-time) and the causal health of
  // the log: an orphan references a parent that was never emitted.
  std::unordered_map<std::uint64_t, double> child_seconds;
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = 0.0;
  for (const Event& e : events) {
    t_min = std::min(t_min, e.mono_seconds);
    t_max = std::max(t_max, e.mono_seconds +
                                std::max(0.0, e.duration_seconds));
    if (e.duration_seconds >= 0.0) ++rep.spans;
    if (e.parent_span_id != 0) {
      if (span_index.count(e.parent_span_id) == 0)
        ++rep.orphan_events;
      else if (e.duration_seconds >= 0.0)
        child_seconds[e.parent_span_id] += e.duration_seconds;
    }
  }
  rep.wall_seconds = std::max(0.0, t_max - t_min);

  // Phases, workers, cells, searches.
  std::map<std::string, PhaseStat> phases;
  std::map<std::uint64_t, std::size_t> worker_index;  // tid -> workers[] idx
  std::unordered_map<std::uint64_t, std::size_t> cell_of_span;
  std::unordered_map<std::uint64_t, std::size_t> search_of_span;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];

    std::size_t widx;
    if (const auto it = worker_index.find(e.thread_id);
        it != worker_index.end()) {
      widx = it->second;
    } else {
      widx = rep.workers.size();
      worker_index.emplace(e.thread_id, widx);
      WorkerStat w;
      w.lane = static_cast<int>(widx);
      w.thread_id = e.thread_id;
      rep.workers.push_back(w);
    }
    ++rep.workers[widx].events;

    if (e.name == "guard.state") {
      GuardEventStat g;
      if (const Field* f = find_field(e, "search")) g.search = f->value;
      if (const Field* f = find_field(e, "from")) g.from = f->value;
      if (const Field* f = find_field(e, "to")) g.to = f->value;
      if (const Field* f = find_field(e, "reason")) g.reason = f->value;
      g.trust = field_number(e, "trust", 0.0);
      g.evals = static_cast<std::size_t>(field_number(e, "evals", 0.0));
      rep.guard_events.push_back(std::move(g));
    }

    if (e.duration_seconds < 0.0) continue;
    double self = e.duration_seconds;
    if (e.span_id != 0) {
      if (const auto it = child_seconds.find(e.span_id);
          it != child_seconds.end())
        self = std::max(0.0, self - it->second);
    }
    ++rep.workers[widx].spans;
    rep.workers[widx].busy_seconds += self;

    PhaseStat& p = phases[e.name];
    p.name = e.name;
    ++p.count;
    p.total_seconds += e.duration_seconds;
    p.self_seconds += self;
    p.max_seconds = std::max(p.max_seconds, e.duration_seconds);

    if (e.name == "experiment.cell" && e.span_id != 0) {
      cell_of_span.emplace(e.span_id, rep.cells.size());
      CellStat c;
      if (const Field* label = find_field(e, "label")) c.label = label->value;
      if (c.label.empty()) c.label = "cell." + std::to_string(e.span_id);
      c.seconds = e.duration_seconds;
      rep.cells.push_back(std::move(c));
    } else if (e.name.rfind("search.", 0) == 0 && e.span_id != 0) {
      // Only SearchSpanGuard spans carry an "algorithm" field; interior
      // search phases ("search.window", "search.RS_p.scan", ...) don't,
      // and must not capture the eval attribution below.
      const Field* algo = find_field(e, "algorithm");
      if (algo != nullptr) {
        search_of_span.emplace(e.span_id, rep.searches.size());
        SearchStat s;
        s.algorithm = algo->value;
        s.duration_seconds = e.duration_seconds;
        rep.searches.push_back(std::move(s));
      }
    }
  }
  for (auto& [name, p] : phases) rep.phases.push_back(p);

  // Attribute every eval record to its enclosing cell and search by
  // walking the causal chain. Per-search sequences are re-sorted by
  // timestamp because the sink logs in completion order, which a
  // parallel window interleaves.
  struct EvalRecord {
    double when;
    bool ok;
    double seconds;
  };
  std::vector<std::vector<EvalRecord>> per_search(rep.searches.size());
  for (const Event& e : events) {
    if (!is_eval_event(e)) continue;
    ++rep.eval_events;
    const bool ok = field_is_true(e, "ok");
    if (!ok) ++rep.eval_failures;
    if (field_number(e, "attempts", 1.0) > 1.0) ++rep.eval_retries;
    if (field_is_true(e, "batched")) ++rep.batched_evals;

    std::uint64_t cursor = e.parent_span_id;
    bool cell_done = false, search_done = false;
    // Depth cap: a corrupt log must not loop us forever.
    for (int depth = 0; cursor != 0 && depth < 64; ++depth) {
      if (!cell_done) {
        if (const auto it = cell_of_span.find(cursor);
            it != cell_of_span.end()) {
          ++rep.cells[it->second].evals;
          if (!ok) ++rep.cells[it->second].failures;
          cell_done = true;
        }
      }
      if (!search_done) {
        if (const auto it = search_of_span.find(cursor);
            it != search_of_span.end()) {
          per_search[it->second].push_back(
              EvalRecord{e.mono_seconds, ok, field_number(e, "seconds", 0.0)});
          search_done = true;
        }
      }
      if (cell_done && search_done) break;
      const auto it = span_index.find(cursor);
      cursor = it != span_index.end() ? events[it->second].parent_span_id : 0;
    }
  }

  for (std::size_t si = 0; si < rep.searches.size(); ++si) {
    SearchStat& s = rep.searches[si];
    auto& evals = per_search[si];
    std::stable_sort(evals.begin(), evals.end(),
                     [](const EvalRecord& a, const EvalRecord& b) {
                       return a.when < b.when;
                     });
    s.evals = evals.size();
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (!evals[i].ok) {
        ++s.failures;
        continue;
      }
      if (evals[i].seconds < best) {
        best = evals[i].seconds;
        s.best_seconds = best;
        s.evals_to_best = i + 1;
      }
    }
  }
  // Retry counts live on the eval events; per-search attribution reuses
  // the same chain walk above, so recompute cheaply here.
  for (const Event& e : events) {
    if (!is_eval_event(e) || field_number(e, "attempts", 1.0) <= 1.0)
      continue;
    std::uint64_t cursor = e.parent_span_id;
    for (int depth = 0; cursor != 0 && depth < 64; ++depth) {
      if (const auto it = search_of_span.find(cursor);
          it != search_of_span.end()) {
        ++rep.searches[it->second].retried;
        break;
      }
      const auto it = span_index.find(cursor);
      cursor = it != span_index.end() ? events[it->second].parent_span_id : 0;
    }
  }

  return rep;
}

void write_report(std::ostream& os, const Report& rep) {
  os << "portatune report\n"
     << "  events " << rep.events << "  spans " << rep.spans << "  threads "
     << rep.workers.size() << "  orphans " << rep.orphan_events << "  wall "
     << fmt_seconds(rep.wall_seconds) << " s\n"
     << "  evals " << rep.eval_events << "  failures " << rep.eval_failures
     << "  retried " << rep.eval_retries << "  batched "
     << rep.batched_evals << "  skipped_lines " << rep.skipped_lines
     << "\n";

  if (!rep.phases.empty()) {
    std::size_t w = 5;
    for (const auto& p : rep.phases) w = std::max(w, p.name.size());
    os << "\nphases\n  ";
    pad_to(os, "name", w);
    os << "  count     total_s      self_s      mean_s       max_s\n";
    for (const auto& p : rep.phases) {
      os << "  ";
      pad_to(os, p.name, w);
      pad_left(os, std::to_string(p.count), 7);
      pad_left(os, fmt_seconds(p.total_seconds), 12);
      pad_left(os, fmt_seconds(p.self_seconds), 12);
      pad_left(os, fmt_seconds(p.mean_seconds()), 12);
      pad_left(os, fmt_seconds(p.max_seconds), 12);
      os << "\n";
    }
  }

  if (!rep.workers.empty()) {
    os << "\nworkers\n  lane   events    spans      busy_s\n";
    for (const auto& w : rep.workers) {
      os << "  ";
      pad_left(os, std::to_string(w.lane), 4);
      pad_left(os, std::to_string(w.events), 9);
      pad_left(os, std::to_string(w.spans), 9);
      pad_left(os, fmt_seconds(w.busy_seconds), 12);
      os << "\n";
    }
  }

  if (!rep.cells.empty()) {
    std::size_t w = 5;
    for (const auto& c : rep.cells) w = std::max(w, c.label.size());
    os << "\ncells\n  ";
    pad_to(os, "label", w);
    os << "      cell_s    evals  failures\n";
    for (const auto& c : rep.cells) {
      os << "  ";
      pad_to(os, c.label, w);
      pad_left(os, fmt_seconds(c.seconds), 12);
      pad_left(os, std::to_string(c.evals), 9);
      pad_left(os, std::to_string(c.failures), 10);
      os << "\n";
    }
  }

  if (!rep.searches.empty()) {
    std::size_t w = 9;
    for (const auto& s : rep.searches) w = std::max(w, s.algorithm.size());
    os << "\nsearches\n  ";
    pad_to(os, "algorithm", w);
    os << "  evals  failures  retried  evals_to_best      best_s"
          "  duration_s\n";
    for (const auto& s : rep.searches) {
      os << "  ";
      pad_to(os, s.algorithm, w);
      pad_left(os, std::to_string(s.evals), 7);
      pad_left(os, std::to_string(s.failures), 10);
      pad_left(os, std::to_string(s.retried), 9);
      pad_left(os, std::to_string(s.evals_to_best), 15);
      pad_left(os, s.evals_to_best > 0 ? fmt_seconds(s.best_seconds) : "-",
               12);
      pad_left(os, fmt_seconds(s.duration_seconds), 12);
      os << "\n";
    }
  }

  if (!rep.guard_events.empty()) {
    std::size_t w = 6;
    for (const auto& g : rep.guard_events)
      w = std::max(w, g.search.size());
    os << "\nguard timeline\n  ";
    pad_to(os, "search", w);
    os << "  evals  ";
    pad_to(os, "from", 8);
    os << "  ";
    pad_to(os, "to", 8);
    pad_left(os, "trust", 9);
    os << "  reason\n";
    for (const auto& g : rep.guard_events) {
      os << "  ";
      pad_to(os, g.search, w);
      pad_left(os, std::to_string(g.evals), 7);
      os << "  ";
      pad_to(os, g.from, 8);
      os << "  ";
      pad_to(os, g.to, 8);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%+.3f", g.trust);
      pad_left(os, buf, 9);
      os << "  " << g.reason << "\n";
    }
  }
}

namespace {

Comparison compare_series(
    const std::vector<std::pair<std::string, double>>& baseline,
    const std::vector<std::pair<std::string, double>>& current,
    double threshold_percent) {
  Comparison out;
  out.threshold_percent = threshold_percent;
  std::map<std::string, double> cur(current.begin(), current.end());
  std::map<std::string, double> seen;
  for (const auto& [name, base] : baseline) {
    const auto it = cur.find(name);
    if (it == cur.end()) {
      out.only_baseline.push_back(name);
      continue;
    }
    DeltaRow row;
    row.name = name;
    row.baseline = base;
    row.current = it->second;
    // A vanishing baseline has no meaningful percent; report the delta
    // as zero rather than inventing an infinite regression.
    row.delta_percent =
        base > 0.0 ? (row.current - base) / base * 100.0 : 0.0;
    row.regressed = base > 0.0 && row.delta_percent >= threshold_percent;
    if (row.regressed) ++out.regressions;
    out.rows.push_back(std::move(row));
    seen.emplace(name, 0.0);
  }
  for (const auto& [name, value] : current)
    if (seen.count(name) == 0) out.only_current.push_back(name);
  return out;
}

}  // namespace

Comparison compare_reports(const Report& baseline, const Report& current,
                           double threshold_percent) {
  std::vector<std::pair<std::string, double>> base_series, cur_series;
  for (const auto& p : baseline.phases)
    base_series.emplace_back(p.name, p.total_seconds);
  for (const auto& p : current.phases)
    cur_series.emplace_back(p.name, p.total_seconds);
  return compare_series(base_series, cur_series, threshold_percent);
}

Comparison compare_bench_json(const std::string& baseline_path,
                              const std::string& current_path,
                              double threshold_percent) {
  const auto load = [](const std::string& path) {
    std::ifstream is(path);
    PT_REQUIRE(is.good(), "cannot open benchmark JSON: " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const json::Value doc = json::Value::parse(buf.str());
    const json::Value* benchmarks = doc.find("benchmarks");
    PT_REQUIRE(benchmarks != nullptr && benchmarks->is_array(),
               "not a google-benchmark JSON file (no \"benchmarks\" "
               "array): " + path);
    std::vector<std::pair<std::string, double>> series;
    for (const json::Value& b : benchmarks->as_array()) {
      const json::Value* name = b.find("name");
      const json::Value* time = b.find("real_time");
      if (name == nullptr || time == nullptr) continue;
      // Aggregate rows (mean/median/stddev repetitions) would collide
      // with the base name; google-benchmark suffixes them, so first
      // occurrence per name is the per-run measurement.
      bool dup = false;
      for (const auto& [n, v] : series) dup = dup || n == name->as_string();
      if (!dup) series.emplace_back(name->as_string(), time->as_number());
    }
    return series;
  };
  return compare_series(load(baseline_path), load(current_path),
                        threshold_percent);
}

void write_comparison(std::ostream& os, const Comparison& c) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", c.threshold_percent);
  os << "comparison (regression threshold +" << buf << "%)\n";
  std::size_t w = 4;
  for (const auto& row : c.rows) w = std::max(w, row.name.size());
  if (!c.rows.empty()) {
    os << "  ";
    pad_to(os, "name", w);
    os << "     baseline      current     delta\n";
  }
  for (const auto& row : c.rows) {
    os << "  ";
    pad_to(os, row.name, w);
    pad_left(os, fmt_seconds(row.baseline), 13);
    pad_left(os, fmt_seconds(row.current), 13);
    std::snprintf(buf, sizeof buf, "%+.1f%%", row.delta_percent);
    pad_left(os, buf, 10);
    if (row.regressed) os << "  REGRESSED";
    os << "\n";
  }
  for (const auto& name : c.only_baseline)
    os << "  only in baseline: " << name << "\n";
  for (const auto& name : c.only_current)
    os << "  only in current:  " << name << "\n";
  if (c.regressions > 0) {
    std::snprintf(buf, sizeof buf, "%.1f", c.threshold_percent);
    os << "verdict: " << c.regressions << " series regressed by +" << buf
       << "% or more\n";
  } else {
    os << "verdict: no regressions\n";
  }
}

void write_metrics_summary(std::ostream& os, const std::string& path) {
  std::ifstream is(path);
  PT_REQUIRE(is.good(), "cannot open metrics snapshot: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  const json::Value doc = json::Value::parse(buf.str());

  std::size_t w = 4;
  const auto widen = [&](const char* section) {
    if (const json::Value* v = doc.find(section); v != nullptr)
      for (const auto& [name, value] : v->as_object())
        w = std::max(w, name.size());
  };
  widen("counters");
  widen("gauges");
  widen("histograms");

  os << "metrics (" << path << ")\n";
  if (const json::Value* counters = doc.find("counters"))
    for (const auto& [name, value] : counters->as_object()) {
      os << "  ";
      pad_to(os, name, w);
      os << "  counter    " << count_in(path, *counters, name) << "\n";
    }
  if (const json::Value* gauges = doc.find("gauges"))
    for (const auto& [name, value] : gauges->as_object()) {
      os << "  ";
      pad_to(os, name, w);
      os << "  gauge      " << fmt_seconds(value.as_number()) << "\n";
    }
  if (const json::Value* histograms = doc.find("histograms"))
    for (const auto& [name, value] : histograms->as_object()) {
      os << "  ";
      pad_to(os, name, w);
      os << "  histogram  count=" << count_in(path, value, "count")
         << " mean=" << fmt_seconds(value.at("mean").as_number())
         << " min=" << fmt_seconds(value.at("min").as_number())
         << " max=" << fmt_seconds(value.at("max").as_number());
      // Percentiles are a v2 addition to the snapshot format; summaries
      // of old snapshots simply omit them.
      if (const json::Value* p50 = value.find("p50"))
        os << " p50=" << fmt_seconds(p50->as_number());
      if (const json::Value* p95 = value.find("p95"))
        os << " p95=" << fmt_seconds(p95->as_number());
      if (const json::Value* p99 = value.find("p99"))
        os << " p99=" << fmt_seconds(p99->as_number());
      os << "\n";
    }
}

TimeseriesSummary analyze_timeseries(const std::string& path) {
  std::ifstream is(path);
  PT_REQUIRE(is.good(), "cannot open metrics time-series: " + path);

  TimeseriesSummary out;
  std::vector<std::uint64_t> pids;
  double first_wall = 0.0, last_wall = 0.0;
  // name -> accumulated Series (running sum kept in `mean` until the end)
  std::map<std::string, TimeseriesSummary::Series> rates, gauges;
  const auto fold = [](std::map<std::string, TimeseriesSummary::Series>& m,
                       const json::Value& section) {
    for (const auto& [name, value] : section.as_object()) {
      TimeseriesSummary::Series& s = m[name];
      s.name = name;
      const double v = value.as_number();
      ++s.samples;
      s.mean += v;
      s.max = std::max(s.max, v);
      s.last = v;
    }
  };

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    json::Value row;
    try {
      row = json::Value::parse(line);
    } catch (const Error&) {
      ++out.skipped_lines;  // a SIGKILL can tear the final line
      continue;
    }
    ++out.rows;
    if (row.find("pid") != nullptr) {
      const std::uint64_t p = count_in(path, row, "pid");
      if (std::find(pids.begin(), pids.end(), p) == pids.end())
        pids.push_back(p);
    }
    if (const json::Value* t = row.find("t_wall")) {
      if (out.rows == 1) first_wall = t->as_number();
      last_wall = t->as_number();
    }
    if (const json::Value* dt = row.find("dt"))
      out.sampled_seconds += dt->as_number();
    if (const json::Value* r = row.find("rates")) fold(rates, *r);
    if (const json::Value* g = row.find("gauges")) fold(gauges, *g);
  }
  out.segments = pids.size();
  out.wall_seconds = std::max(0.0, last_wall - first_wall);
  const auto finish = [](std::map<std::string,
                                  TimeseriesSummary::Series>& m,
                         std::vector<TimeseriesSummary::Series>& v) {
    for (auto& [name, s] : m) {
      if (s.samples > 0) s.mean /= static_cast<double>(s.samples);
      v.push_back(std::move(s));
    }
  };
  finish(rates, out.rates);
  finish(gauges, out.gauges);
  return out;
}

void write_timeseries_summary(std::ostream& os,
                              const TimeseriesSummary& summary,
                              const std::string& path) {
  os << "timeseries (" << path << ")\n";
  os << "  " << summary.rows << " samples over "
     << fmt_seconds(summary.wall_seconds) << "s wall ("
     << fmt_seconds(summary.sampled_seconds) << "s sampled), "
     << summary.segments << " segment"
     << (summary.segments == 1 ? "" : "s");
  if (summary.segments > 1)
    os << " — the run was killed and resumed "
       << summary.segments - 1 << " time"
       << (summary.segments == 2 ? "" : "s");
  if (summary.skipped_lines > 0)
    os << ", " << summary.skipped_lines << " torn line(s) skipped";
  os << "\n";

  std::size_t w = 4;
  for (const auto& s : summary.rates) w = std::max(w, s.name.size());
  for (const auto& s : summary.gauges) w = std::max(w, s.name.size());
  for (const auto& s : summary.rates) {
    os << "  ";
    pad_to(os, s.name, w);
    os << "  rate/s  mean=" << fmt_seconds(s.mean)
       << " max=" << fmt_seconds(s.max)
       << " last=" << fmt_seconds(s.last) << "\n";
  }
  for (const auto& s : summary.gauges) {
    os << "  ";
    pad_to(os, s.name, w);
    os << "  gauge   mean=" << fmt_seconds(s.mean)
       << " max=" << fmt_seconds(s.max)
       << " last=" << fmt_seconds(s.last) << "\n";
  }
}

}  // namespace portatune::obs
