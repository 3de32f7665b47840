#include "tuner/persistence.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace portatune::tuner {

namespace {

std::string read_all(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

/// Map a parameter value back to its index in the space (exact match).
int value_to_index(const ParamSpace& space, std::size_t param,
                   double value, std::size_t row) {
  const auto& values = space.param(param).values;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] == value) return static_cast<int>(i);
  throw Error("trace row " + std::to_string(row) + ": value " +
              std::to_string(value) + " not in the domain of parameter " +
              space.param(param).name);
}

}  // namespace

void save_trace_csv(std::ostream& os, const SearchTrace& trace,
                    const ParamSpace& space) {
  std::ostringstream payload;
  payload << "# portatune-trace v3," << trace.algorithm() << ","
          << trace.problem() << "," << trace.machine() << "\n";
  const auto names = space.names();
  for (const auto& n : names) payload << n << ",";
  payload << "seconds,draw_index,wall_unix\n";
  payload.precision(17);
  for (const auto& e : trace.entries()) {
    const auto features = space.features(e.config);
    for (double v : features) payload << v << ",";
    payload << e.seconds << "," << e.draw_index << "," << e.wall_unix
            << "\n";
  }
  os << append_checksum_footer(payload.str());
}

void save_trace_csv(const std::string& path, const SearchTrace& trace,
                    const ParamSpace& space) {
  // Serialize in memory and go through the crash-safe replacement path:
  // a kill mid-save leaves the previous trace file intact, never a torn
  // one the checksum loader would (correctly but uselessly) reject.
  std::ostringstream os;
  save_trace_csv(os, trace, space);
  atomic_write_file(path, os.str());
}

SearchTrace load_trace_csv(std::istream& is, const ParamSpace& space) {
  // The checksum footer covers the whole payload; verify it before any
  // parsing so truncation/corruption fails with a checksum diagnostic,
  // never a confusing parse error deep in the rows.
  const std::string content = read_all(is);
  PT_REQUIRE(!content.empty(), "empty trace file");
  PT_REQUIRE(content.rfind("# portatune-trace v3,", 0) == 0,
             "not a portatune v3 trace (bad magic line)");
  std::istringstream in(strip_verified_checksum_footer(content, "trace"));

  std::string line;
  std::getline(in, line);
  const auto meta = split_csv(line.substr(std::string("# ").size()));
  PT_REQUIRE(meta.size() == 4, "malformed trace metadata");
  SearchTrace trace(meta[1], meta[2], meta[3]);

  const std::size_t columns = space.num_params() + 3;
  PT_REQUIRE(std::getline(in, line), "missing trace header row");
  const auto header = split_csv(line);
  PT_REQUIRE(header.size() == columns,
             "trace header arity does not match the parameter space");
  const auto names = space.names();
  for (std::size_t p = 0; p < names.size(); ++p)
    PT_REQUIRE(header[p] == names[p],
               "trace parameter '" + header[p] +
                   "' does not match space parameter '" + names[p] + "'");

  std::size_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    PT_REQUIRE(cells.size() == columns,
               "trace row " + std::to_string(row) + " has wrong arity");
    ParamConfig config(space.num_params());
    for (std::size_t p = 0; p < space.num_params(); ++p)
      config[p] = value_to_index(space, p, std::stod(cells[p]), row);
    const double seconds = std::stod(cells[space.num_params()]);
    PT_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
               "trace row " + std::to_string(row) + " has a bad run time");
    const auto draw =
        static_cast<std::size_t>(std::stoull(cells[space.num_params() + 1]));
    const double wall = std::stod(cells[space.num_params() + 2]);
    trace.record(std::move(config), seconds, draw, wall);
  }
  return trace;
}

SearchTrace load_trace_csv(const std::string& path,
                           const ParamSpace& space) {
  std::ifstream is(path);
  PT_REQUIRE(is.good(), "cannot open trace file: " + path);
  return load_trace_csv(is, space);
}

void save_checkpoint_csv(std::ostream& os, const SearchCheckpoint& snapshot,
                         const ParamSpace& space) {
  const SearchTrace& trace = snapshot.trace;
  std::ostringstream payload;
  payload.precision(17);
  payload << "# portatune-checkpoint v3," << trace.algorithm() << ","
          << trace.problem() << "," << trace.machine() << "\n";
  payload << "# draws," << snapshot.draws << "\n";
  payload << "# clock," << trace.total_time() << "\n";
  payload << "# stop," << trace.stop_reason() << "\n";
  const FailureStats& fs = trace.failure_stats();
  payload << "# stats," << fs.attempts << "," << fs.failures << ","
          << fs.transient << "," << fs.deterministic << "," << fs.timeouts
          << "," << fs.overhead_seconds << "\n";
  if (!snapshot.quarantine.empty()) {
    payload << "# quarantine";
    for (const auto h : snapshot.quarantine) payload << "," << hex16(h);
    payload << "\n";
  }
  if (!snapshot.pending.empty()) {
    // Row absent when empty, so checkpoints from the free-function
    // searches (which never suggest) are byte-identical to before.
    payload << "# pending";
    for (const auto& [hash, draw] : snapshot.pending)
      payload << "," << hex16(hash) << ":" << draw;
    payload << "\n";
  }
  const auto names = space.names();
  for (const auto& n : names) payload << n << ",";
  payload << "seconds,elapsed,draw_index,wall_unix\n";
  for (const auto& e : trace.entries()) {
    const auto features = space.features(e.config);
    for (double v : features) payload << v << ",";
    payload << e.seconds << "," << e.elapsed << "," << e.draw_index << ","
            << e.wall_unix << "\n";
  }
  os << append_checksum_footer(payload.str());
}

void save_checkpoint_csv(const std::string& path,
                         const SearchCheckpoint& snapshot,
                         const ParamSpace& space) {
  // Crash-safe replacement (write-temp + fsync + rename + dir fsync):
  // a kill at any instant leaves the previous checkpoint whole.
  std::ostringstream os;
  save_checkpoint_csv(os, snapshot, space);
  atomic_write_file(path, os.str());
}

SearchCheckpoint load_checkpoint_csv(std::istream& is,
                                     const ParamSpace& space) {
  // Checksum verification first: a resumed run must never proceed from a
  // checkpoint whose bytes cannot be trusted.
  const std::string content = read_all(is);
  PT_REQUIRE(!content.empty(), "empty checkpoint file");
  PT_REQUIRE(content.rfind("# portatune-checkpoint v3,", 0) == 0,
             "not a portatune v3 checkpoint (bad magic line)");
  std::istringstream in(strip_verified_checksum_footer(content, "checkpoint"));

  std::string line;
  std::getline(in, line);
  const auto meta = split_csv(line.substr(std::string("# ").size()));
  PT_REQUIRE(meta.size() == 4, "malformed checkpoint metadata");

  SearchCheckpoint snapshot;
  snapshot.trace = SearchTrace(meta[1], meta[2], meta[3]);
  SearchTrace& trace = snapshot.trace;

  double clock = 0.0;
  FailureStats fs;
  std::string header_line;
  // Metadata rows run until the first non-"# " line (the column header).
  while (std::getline(in, line)) {
    if (line.rfind("# ", 0) != 0) {
      header_line = line;
      break;
    }
    const std::string body = line.substr(2);
    const auto comma = body.find(',');
    const std::string key = body.substr(0, comma);
    const std::string rest =
        comma == std::string::npos ? std::string() : body.substr(comma + 1);
    if (key == "draws") {
      snapshot.draws = static_cast<std::size_t>(std::stoull(rest));
    } else if (key == "clock") {
      clock = std::stod(rest);
    } else if (key == "stop") {
      // restore_stop_reason, not set_stop_reason: loading a checkpoint of
      // an aborted search must not re-announce the abort (no event/flush).
      if (!rest.empty()) trace.restore_stop_reason(rest);
    } else if (key == "stats") {
      const auto cells = split_csv(rest);
      PT_REQUIRE(cells.size() == 6, "malformed checkpoint stats row");
      fs.attempts = std::stoull(cells[0]);
      fs.failures = std::stoull(cells[1]);
      fs.transient = std::stoull(cells[2]);
      fs.deterministic = std::stoull(cells[3]);
      fs.timeouts = std::stoull(cells[4]);
      fs.overhead_seconds = std::stod(cells[5]);
    } else if (key == "quarantine") {
      for (const auto& cell : split_csv(rest))
        snapshot.quarantine.push_back(std::stoull(cell, nullptr, 16));
    } else if (key == "pending") {
      for (const auto& cell : split_csv(rest)) {
        const auto colon = cell.find(':');
        PT_REQUIRE(colon != std::string::npos,
                   "malformed checkpoint pending cell: " + cell);
        snapshot.pending.emplace_back(
            std::stoull(cell.substr(0, colon), nullptr, 16),
            static_cast<std::size_t>(std::stoull(cell.substr(colon + 1))));
      }
    } else {
      throw Error("unknown checkpoint metadata key: " + key);
    }
  }

  PT_REQUIRE(!header_line.empty(), "missing checkpoint header row");
  const std::size_t columns = space.num_params() + 4;
  const auto header = split_csv(header_line);
  PT_REQUIRE(header.size() == columns,
             "checkpoint header arity does not match the parameter space");
  const auto names = space.names();
  for (std::size_t p = 0; p < names.size(); ++p)
    PT_REQUIRE(header[p] == names[p],
               "checkpoint parameter '" + header[p] +
                   "' does not match space parameter '" + names[p] + "'");

  std::size_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    PT_REQUIRE(cells.size() == columns,
               "checkpoint row " + std::to_string(row) + " has wrong arity");
    ParamConfig config(space.num_params());
    for (std::size_t p = 0; p < space.num_params(); ++p)
      config[p] = value_to_index(space, p, std::stod(cells[p]), row);
    const double seconds = std::stod(cells[space.num_params()]);
    const double elapsed = std::stod(cells[space.num_params() + 1]);
    PT_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
               "checkpoint row " + std::to_string(row) +
                   " has a bad run time");
    PT_REQUIRE(std::isfinite(elapsed) && elapsed >= 0.0,
               "checkpoint row " + std::to_string(row) +
                   " has a bad elapsed time");
    const auto draw =
        static_cast<std::size_t>(std::stoull(cells[space.num_params() + 2]));
    const double wall = std::stod(cells[space.num_params() + 3]);
    trace.restore_entry(std::move(config), seconds, elapsed, draw, wall);
  }
  trace.restore_failure_stats(fs);
  trace.restore_clock(clock);
  PT_REQUIRE(snapshot.draws >= trace.size(),
             "checkpoint draw count is smaller than its trace");
  return snapshot;
}

SearchCheckpoint load_checkpoint_csv(const std::string& path,
                                     const ParamSpace& space) {
  std::ifstream is(path);
  PT_REQUIRE(is.good(), "cannot open checkpoint file: " + path);
  return load_checkpoint_csv(is, space);
}

std::optional<CheckpointSummary> summarize_checkpoint_csv(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  try {
    const std::string content = read_all(is);
    if (content.rfind("# portatune-checkpoint v3,", 0) != 0)
      return std::nullopt;
    std::istringstream in(
        strip_verified_checksum_footer(content, "checkpoint"));
    std::string line;
    do {  // the magic and metadata rows precede the column header
      if (!std::getline(in, line)) return std::nullopt;
    } while (line.rfind("# ", 0) == 0);
    // The columns end with seconds,elapsed,draw_index,wall_unix.
    const std::size_t columns = split_csv(line).size();
    if (columns < 4) return std::nullopt;
    CheckpointSummary out;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto cells = split_csv(line);
      if (cells.size() != columns) return std::nullopt;
      out.best_seconds =
          std::min(out.best_seconds, std::stod(cells[columns - 4]));
      ++out.rows;
    }
    return out;
  } catch (const std::exception&) {
    return std::nullopt;  // checksum mismatch or a malformed number
  }
}

}  // namespace portatune::tuner
