#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "support/error.hpp"

namespace portatune::obs {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::Value::parse("null").is_null());
  EXPECT_TRUE(json::Value::parse("true").as_bool());
  EXPECT_FALSE(json::Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::Value::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(json::Value::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedDocuments) {
  const auto v = json::Value::parse(
      R"({"a":[1,2,{"b":"x"}],"c":{"d":null},"e":true})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "x");
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), Error);
}

TEST(Json, DecodesEscapes) {
  const auto v = json::Value::parse(R"("tab\there\nquote\"uA")");
  EXPECT_EQ(v.as_string(), "tab\there\nquote\"uA");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse(""), Error);
  EXPECT_THROW(json::Value::parse("{"), Error);
  EXPECT_THROW(json::Value::parse("[1,]"), Error);
  EXPECT_THROW(json::Value::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(json::Value::parse("'single'"), Error);
}

TEST(Json, BoundsNestingDepth) {
  // 256 levels parse; one more is a parse error, and so is a line of
  // nothing but '[' far too deep to recurse through.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(json::Value::parse(nested(256)));
  EXPECT_THROW(json::Value::parse(nested(257)), Error);
  try {
    json::Value::parse(std::string(900000, '['));
    FAIL() << "900000 nested arrays parsed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("json: ", 0), 0u) << what;
    EXPECT_NE(what.find("nesting deeper than 256"), std::string::npos)
        << what;
  }
}

TEST(Json, DumpRoundTrips) {
  const std::string doc = R"({"a":[1,true,"x\n"],"b":null})";
  const auto v = json::Value::parse(doc);
  const auto again = json::Value::parse(v.dump());
  EXPECT_EQ(again.at("a").as_array()[2].as_string(), "x\n");
  EXPECT_TRUE(again.at("b").is_null());
}

TEST(ChromeTrace, ExportsSpansAndInstants) {
  std::vector<Event> events;
  events.push_back(make_span(Severity::Info, "phase.fit", "experiment", 0.25,
                             {{"rows", std::uint64_t{100}}}));
  events.push_back(make_instant(Severity::Warn, "search.abort", "search",
                                {{"reason", "budget"}}));

  std::ostringstream os;
  write_chrome_trace(os, events);
  const auto doc = json::Value::parse(os.str());
  const auto& items = doc.at("traceEvents").as_array();
  ASSERT_EQ(items.size(), 2u);

  const auto& span = items[0];
  EXPECT_EQ(span.at("name").as_string(), "phase.fit");
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_NEAR(span.at("dur").as_number(), 250000.0, 1.0);  // microseconds
  EXPECT_EQ(span.at("pid").as_number(), 1.0);
  EXPECT_EQ(span.at("args").at("rows").as_number(), 100.0);

  const auto& instant = items[1];
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_EQ(instant.at("args").at("reason").as_string(), "budget");
}

TEST(ChromeTrace, ConvertsJsonlLogs) {
  // Produce a JSONL log the way JsonlSink would, then convert it.
  std::ostringstream log;
  JsonlSink sink(log);
  sink.log(make_span(Severity::Info, "eval", "eval", 0.001,
                     {{"ok", true}, {"config", "1/2/3"}}));
  sink.log(make_instant(Severity::Info, "tick", "test"));

  std::istringstream in(log.str());
  std::ostringstream out;
  EXPECT_EQ(jsonl_to_chrome_trace(in, out), 2u);
  const auto doc = json::Value::parse(out.str());
  const auto& items = doc.at("traceEvents").as_array();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].at("args").at("config").as_string(), "1/2/3");
}

TEST(ChromeTrace, RejectsMalformedJsonl) {
  std::istringstream in("this is not json\n");
  std::ostringstream out;
  EXPECT_THROW(jsonl_to_chrome_trace(in, out), Error);
}

TEST(ChromeTrace, StrictReadThrowsOnTornLine) {
  // Default (no stats out-param): malformed input is an error, exactly
  // as before the lenient mode existed.
  std::istringstream in(
      R"({"name":"a","cat":"c","sev":"info","ts":1.0})" "\n"
      R"({"name":"b","cat":"c","sev":)" "\n");  // torn mid-write
  EXPECT_THROW(read_event_log(in), Error);
}

TEST(ChromeTrace, LenientReadSkipsAndCountsTornLines) {
  // A crashed run tears its last JSONL line mid-write; with a stats
  // out-param the reader salvages every intact event and reports what it
  // dropped instead of throwing the whole log away.
  std::ostringstream log;
  JsonlSink sink(log);
  sink.log(make_instant(Severity::Info, "first", "test"));
  sink.log(make_instant(Severity::Info, "second", "test"));
  std::string text = log.str();
  text += R"({"name":"torn","cat":"test","sev":)";  // no newline, torn

  std::istringstream in(text);
  LogReadStats stats;
  const auto events = read_event_log(in, &stats);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].name, "second");
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_NE(stats.first_error.find("line 3"), std::string::npos)
      << stats.first_error;
}

TEST(ChromeTrace, LenientReadSkipsMidFileGarbage) {
  // Bit-flipped or interleaved junk between valid lines: each bad line
  // is skipped independently; the good ones all survive.
  std::ostringstream log;
  JsonlSink sink(log);
  sink.log(make_instant(Severity::Info, "keep.1", "test"));
  std::string text = log.str();
  text += "#### not json at all\n";
  text += R"({"cat":"test","sev":"info","ts":1.0})" "\n";  // missing name
  {
    std::ostringstream more;
    JsonlSink tail(more);
    tail.log(make_instant(Severity::Info, "keep.2", "test"));
    text += more.str();
  }

  std::istringstream in(text);
  LogReadStats stats;
  const auto events = read_event_log(in, &stats);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "keep.1");
  EXPECT_EQ(events[1].name, "keep.2");
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_FALSE(stats.first_error.empty());
}

TEST(ChromeTrace, LenientReadOnCleanLogCountsNothing) {
  std::ostringstream log;
  JsonlSink sink(log);
  sink.log(make_instant(Severity::Info, "only", "test"));
  std::istringstream in(log.str());
  LogReadStats stats;
  const auto events = read_event_log(in, &stats);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.lines, 1u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_TRUE(stats.first_error.empty());
}

TEST(ChromeTrace, OutOfRangeNumbersAreMalformedLines) {
  // Ids, thread ids and wall-clock microseconds are non-negative integers
  // that fit their fields; anything else is a malformed line, never an
  // out-of-range cast.
  const std::string good =
      R"({"ts":1.0,"wall_us":5,"level":"info","name":"a","cat":"c",)"
      R"("tid":2,"span":3,"parent":1})";
  std::string text = good + "\n";
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"span\":3", "\"span\":-1"},
           {"\"tid\":2", "\"tid\":1e300"},
           {"\"parent\":1", "\"parent\":1.5"},
           {"\"wall_us\":5", "\"wall_us\":-5"},
           {"\"wall_us\":5", "\"wall_us\":1e19"}}) {  // above 2^63 - 1
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    text += line + "\n";
  }
  std::istringstream lenient(text);
  LogReadStats stats;
  const auto events = read_event_log(lenient, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span_id, 3u);
  EXPECT_EQ(stats.skipped, 5u);
  EXPECT_NE(stats.first_error.find("line 2"), std::string::npos)
      << stats.first_error;
  std::istringstream strict(text);
  EXPECT_THROW(read_event_log(strict), Error);
}

namespace {

Event placed_span(std::string name, std::uint64_t id, std::uint64_t parent,
                  double ts, double dur, std::uint64_t tid) {
  Event e = make_span(Severity::Info, std::move(name), "test", dur);
  e.mono_seconds = ts;
  e.thread_id = tid;
  e.span_id = id;
  e.parent_span_id = parent;
  return e;
}

}  // namespace

TEST(ChromeTrace, SortsSlicesByThreadAndTimestamp) {
  // The sink logs in completion order; the exporter must serialize each
  // lane's slices in start order, parents before same-start children.
  std::vector<Event> events;
  events.push_back(placed_span("late", 0, 0, 5.0, 0.1, 7));
  events.push_back(placed_span("child", 2, 1, 1.0, 0.5, 7));
  events.push_back(placed_span("parent", 1, 0, 1.0, 2.0, 7));
  events.push_back(placed_span("other-thread", 0, 0, 0.5, 0.1, 3));

  std::ostringstream os;
  write_chrome_trace(os, events);
  const auto doc = json::Value::parse(os.str());
  const auto& items = doc.at("traceEvents").as_array();
  ASSERT_EQ(items.size(), 4u);
  std::vector<std::string> names;
  for (const auto& item : items) names.push_back(item.at("name").as_string());
  // Lanes serialise in thread-id order; within a lane, "parent" (same
  // start, longer) precedes "child" so the viewer nests them correctly.
  EXPECT_EQ(names,
            (std::vector<std::string>{"other-thread", "parent", "child",
                                      "late"}));
}

TEST(ChromeTrace, SpanIdsRoundTripThroughJsonl) {
  Event e = make_span(Severity::Info, "eval", "eval", 0.001);
  e.span_id = 42;
  e.parent_span_id = 7;
  std::ostringstream log;
  JsonlSink sink(log);
  sink.log(e);

  std::istringstream in(log.str());
  const auto events = read_event_log(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span_id, 42u);
  EXPECT_EQ(events[0].parent_span_id, 7u);
  // Causal ids are schema keys, not fields — no duplicate "span" field.
  for (const auto& f : events[0].fields)
    EXPECT_NE(f.key, "span");

  // The trace exporter surfaces them in args for the viewer.
  std::ostringstream trace;
  write_chrome_trace(trace, events);
  const auto doc = json::Value::parse(trace.str());
  const auto& items = doc.at("traceEvents").as_array();
  EXPECT_EQ(items[0].at("args").at("span").as_number(), 42.0);
  EXPECT_EQ(items[0].at("args").at("parent").as_number(), 7.0);
}

TEST(ChromeTrace, EmitsFlowArrowsForCrossThreadParents) {
  // window (tid 1) -> eval (tid 2): cross-thread, needs a flow pair.
  // window -> sibling (tid 1): same lane, slice nesting is enough.
  std::vector<Event> events;
  events.push_back(placed_span("window", 1, 0, 0.0, 1.0, 1));
  events.push_back(placed_span("eval", 2, 1, 0.2, 0.3, 2));
  events.push_back(placed_span("sibling", 3, 1, 0.6, 0.2, 1));

  std::ostringstream os;
  write_chrome_trace(os, events);
  const auto doc = json::Value::parse(os.str());
  const auto& items = doc.at("traceEvents").as_array();
  std::size_t starts = 0, finishes = 0;
  for (const auto& item : items) {
    const std::string& ph = item.at("ph").as_string();
    if (ph == "s") {
      ++starts;
      EXPECT_EQ(item.at("id").as_number(), 2.0);  // the child's span id
      EXPECT_EQ(item.at("cat").as_string(), "flow");
    } else if (ph == "f") {
      ++finishes;
      EXPECT_EQ(item.at("id").as_number(), 2.0);
      EXPECT_EQ(item.at("bp").as_string(), "e");
    }
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);
  EXPECT_EQ(items.size(), 3u + 2u);  // three slices + one flow pair
}

}  // namespace
}  // namespace portatune::obs
