#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <vector>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace portatune::obs {

namespace {

/// Dense small ids for the trace viewer's thread lanes.
class TidMap {
 public:
  int lane(std::uint64_t thread_id) {
    const auto [it, inserted] =
        lanes_.emplace(thread_id, static_cast<int>(lanes_.size()));
    (void)inserted;
    return it->second;
  }

 private:
  std::map<std::uint64_t, int> lanes_;
};

void write_micros(std::ostream& os, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  os << buf;
}

void write_one(std::ostream& os, const Event& e, TidMap& tids, bool first) {
  if (!first) os << ",\n";
  const bool span = e.duration_seconds >= 0.0;
  os << "{\"name\":\"" << json::escape(e.name) << "\",\"cat\":\""
     << json::escape(e.category) << "\",\"ph\":\"" << (span ? 'X' : 'i')
     << "\",\"ts\":";
  write_micros(os, e.mono_seconds);
  if (span) {
    os << ",\"dur\":";
    write_micros(os, e.duration_seconds);
  } else {
    os << ",\"s\":\"t\"";
  }
  os << ",\"pid\":1,\"tid\":" << tids.lane(e.thread_id);
  os << ",\"args\":{\"level\":\"" << to_string(e.severity) << "\"";
  if (e.span_id != 0) os << ",\"span\":" << e.span_id;
  if (e.parent_span_id != 0) os << ",\"parent\":" << e.parent_span_id;
  for (const auto& f : e.fields) {
    os << ",\"" << json::escape(f.key) << "\":";
    if (f.quoted)
      os << "\"" << json::escape(f.value) << "\"";
    else
      os << (f.value.empty() ? "null" : f.value);
  }
  os << "}}";
}

/// One half of a flow arrow ("s" = start on the parent's lane, "f" =
/// finish binding to the child slice). The shared id is the child's
/// span id, so each cross-thread parent/child edge is its own flow.
void write_flow(std::ostream& os, char phase, std::uint64_t id, double ts,
                int lane) {
  os << ",\n{\"name\":\"span\",\"cat\":\"flow\",\"ph\":\"" << phase
     << "\",\"id\":" << id << ",\"ts\":";
  write_micros(os, ts);
  os << ",\"pid\":1,\"tid\":" << lane;
  if (phase == 'f') os << ",\"bp\":\"e\"";
  os << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const Event> events) {
  // The viewer wants each lane's slices in timestamp order; the sink
  // emits in *completion* order, which interleaves threads arbitrarily.
  // Sort by (thread, start time, longest-first) so nesting slices
  // serialise parent-before-child even when they start the same instant.
  std::vector<const Event*> order;
  order.reserve(events.size());
  for (const Event& e : events) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* a, const Event* b) {
                     if (a->thread_id != b->thread_id)
                       return a->thread_id < b->thread_id;
                     if (a->mono_seconds != b->mono_seconds)
                       return a->mono_seconds < b->mono_seconds;
                     return a->duration_seconds > b->duration_seconds;
                   });

  // Index span slices by id so cross-thread parent links (a window span
  // on the submitting thread, its evaluations on pool workers) can be
  // drawn as flow arrows; same-thread nesting already shows as slice
  // containment.
  struct SpanRef {
    const Event* event;
    int lane;
  };
  TidMap tids;
  std::map<std::uint64_t, SpanRef> spans;
  for (const Event* e : order) {
    const int lane = tids.lane(e->thread_id);
    if (e->span_id != 0 && e->duration_seconds >= 0.0)
      spans.emplace(e->span_id, SpanRef{e, lane});
  }

  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Event* e : order) {
    write_one(os, *e, tids, first);
    first = false;
  }
  for (const auto& [id, child] : spans) {
    if (child.event->parent_span_id == 0) continue;
    const auto it = spans.find(child.event->parent_span_id);
    if (it == spans.end() || it->second.lane == child.lane) continue;
    if (first) continue;  // defensive: flows need at least one slice
    // Anchor the arrow at the child's start: inside the parent slice on
    // the parent's lane, at the child slice's opening edge on its own.
    write_flow(os, 's', id, child.event->mono_seconds, it->second.lane);
    write_flow(os, 'f', id, child.event->mono_seconds, child.lane);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace(const std::string& path,
                        std::span<const Event> events) {
  std::ofstream os(path);
  PT_REQUIRE(os.good(), "cannot open chrome trace for writing: " + path);
  write_chrome_trace(os, events);
  PT_REQUIRE(os.good(), "chrome trace write failed: " + path);
}

namespace {

/// Parse one JSONL line into an Event; throws portatune::Error on any
/// malformation (bad JSON, missing required key, bad severity).
Event parse_event_line(const std::string& line, std::size_t lineno) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const Error& e) {
    throw Error("event log line " + std::to_string(lineno) + ": " +
                e.what());
  }
  try {
    Event e;
    e.mono_seconds = doc.at("ts").as_number();
    const std::uint64_t wall_us = json::size_member(doc, "wall_us");
    PT_REQUIRE(wall_us <= std::numeric_limits<std::int64_t>::max(),
               "'wall_us' must be at most 2^63 - 1");
    e.wall_micros = static_cast<std::int64_t>(wall_us);
    e.severity = severity_from_string(doc.at("level").as_string());
    e.name = doc.at("name").as_string();
    e.category = doc.at("cat").as_string();
    if (const auto* dur = doc.find("dur_s"))
      e.duration_seconds = dur->as_number();
    e.thread_id = json::size_member(doc, "tid", 0);
    e.span_id = json::size_member(doc, "span", 0);
    e.parent_span_id = json::size_member(doc, "parent", 0);
    for (const auto& [key, value] : doc.as_object()) {
      if (key == "ts" || key == "wall_us" || key == "level" ||
          key == "name" || key == "cat" || key == "dur_s" || key == "tid" ||
          key == "span" || key == "parent")
        continue;
      switch (value.type()) {
        case json::Value::Type::String:
          e.fields.emplace_back(key, value.as_string());
          break;
        case json::Value::Type::Number:
          e.fields.emplace_back(key, value.as_number());
          break;
        case json::Value::Type::Bool:
          e.fields.emplace_back(key, value.as_bool());
          break;
        default:
          e.fields.emplace_back(key, value.dump());
          break;
      }
    }
    return e;
  } catch (const Error& e) {
    throw Error("event log line " + std::to_string(lineno) + ": " +
                e.what());
  }
}

}  // namespace

std::vector<Event> read_event_log(std::istream& is, LogReadStats* stats) {
  std::vector<Event> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (stats != nullptr) ++stats->lines;
    try {
      events.push_back(parse_event_line(line, lineno));
    } catch (const Error& e) {
      if (stats == nullptr) throw;  // strict mode
      ++stats->skipped;
      if (stats->first_error.empty()) stats->first_error = e.what();
    }
  }
  return events;
}

std::vector<Event> read_event_log(const std::string& path,
                                  LogReadStats* stats) {
  std::ifstream is(path);
  PT_REQUIRE(is.good(), "cannot open event log: " + path);
  return read_event_log(is, stats);
}

std::size_t jsonl_to_chrome_trace(std::istream& is, std::ostream& os) {
  const std::vector<Event> events = read_event_log(is);
  write_chrome_trace(os, events);
  return events.size();
}

}  // namespace portatune::obs
