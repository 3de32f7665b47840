#include "tuner/persistence.hpp"

#include <cmath>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace portatune::tuner {

namespace {

constexpr std::string_view kMagic = "# portatune-checkpoint v3,";

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
  throw Error("checkpoint row " + std::to_string(row) + ": value " +
              std::to_string(value) + " not in the domain of parameter " +
              space.param(param).name);
}

/// The one parse of a checkpoint file's bytes, shared by the loader and
/// the status summary. With a space, the header must name its parameters
/// and every row's values map to indices of it; without one, only the
/// column count is checked and the configurations stay empty. Every
/// malformed field throws portatune::Error naming its row.
SearchCheckpoint parse_checkpoint(const std::string& content,
                                  const ParamSpace* space) {
  // Checksum verification first: a resumed run must never proceed from a
  // checkpoint whose bytes cannot be trusted.
  PT_REQUIRE(!content.empty(), "empty checkpoint file");
  PT_REQUIRE(content.rfind(kMagic, 0) == 0,
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
    const std::string where = "checkpoint '# " + key + "' row";
    if (key == "draws") {
      snapshot.draws = parse_number<std::size_t>(rest, where);
    } else if (key == "clock") {
      clock = parse_number<double>(rest, where);
    } else if (key == "stop") {
      // restore_stop_reason, not set_stop_reason: loading a checkpoint of
      // an aborted search must not re-announce the abort (no event/flush).
      if (!rest.empty()) trace.restore_stop_reason(rest);
    } else if (key == "stats") {
      const auto cells = split_csv(rest);
      PT_REQUIRE(cells.size() == 6, "malformed checkpoint stats row");
      fs.attempts = parse_number<std::size_t>(cells[0], where);
      fs.failures = parse_number<std::size_t>(cells[1], where);
      fs.transient = parse_number<std::size_t>(cells[2], where);
      fs.deterministic = parse_number<std::size_t>(cells[3], where);
      fs.timeouts = parse_number<std::size_t>(cells[4], where);
      fs.overhead_seconds = parse_number<double>(cells[5], where);
    } else if (key == "quarantine") {
      for (const auto& cell : split_csv(rest))
        snapshot.quarantine.push_back(
            parse_number<std::uint64_t>(cell, where, 16));
    } else if (key == "pending") {
      for (const auto& cell : split_csv(rest)) {
        const auto colon = cell.find(':');
        PT_REQUIRE(colon != std::string::npos,
                   "malformed checkpoint pending cell: " + cell);
        snapshot.pending.emplace_back(
            parse_number<std::uint64_t>(cell.substr(0, colon), where, 16),
            parse_number<std::size_t>(cell.substr(colon + 1), where));
      }
    } else {
      throw Error("unknown checkpoint metadata key: " + key);
    }
  }

  PT_REQUIRE(!header_line.empty(), "missing checkpoint header row");
  // The columns: the parameters, then seconds,elapsed,draw_index,wall_unix.
  const auto header = split_csv(header_line);
  PT_REQUIRE(header.size() >= 4 &&
                 (space == nullptr || header.size() == space->num_params() + 4),
             "checkpoint header arity does not match the parameter space");
  const std::size_t params = header.size() - 4;
  if (space != nullptr)
    for (std::size_t p = 0; p < params; ++p)
      PT_REQUIRE(header[p] == space->param(p).name,
                 "checkpoint parameter '" + header[p] +
                     "' does not match space parameter '" +
                     space->param(p).name + "'");

  std::size_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const std::string where = "checkpoint row " + std::to_string(row);
    const auto cells = split_csv(line);
    PT_REQUIRE(cells.size() == header.size(), where + " has wrong arity");
    ParamConfig config;
    for (std::size_t p = 0; p < params; ++p) {
      const double value = parse_number<double>(cells[p], where);
      if (space != nullptr)
        config.push_back(value_to_index(*space, p, value, row));
    }
    const double seconds = parse_number<double>(cells[params], where);
    const double elapsed = parse_number<double>(cells[params + 1], where);
    PT_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
               where + " has a bad run time");
    PT_REQUIRE(std::isfinite(elapsed) && elapsed >= 0.0,
               where + " has a bad elapsed time");
    trace.restore_entry(std::move(config), seconds, elapsed,
                        parse_number<std::size_t>(cells[params + 2], where),
                        parse_number<double>(cells[params + 3], where));
  }
  trace.restore_failure_stats(fs);
  trace.restore_clock(clock);
  PT_REQUIRE(snapshot.draws >= trace.size(),
             "checkpoint draw count is smaller than its trace");
  return snapshot;
}

}  // namespace

void save_checkpoint_csv(std::ostream& os, const SearchCheckpoint& snapshot,
                         const ParamSpace& space) {
  const SearchTrace& trace = snapshot.trace;
  std::ostringstream payload;
  payload.precision(17);
  payload << kMagic << trace.algorithm() << "," << trace.problem() << ","
          << trace.machine() << "\n";
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
  return parse_checkpoint(read_all(is), &space);
}

SearchCheckpoint load_checkpoint_csv(const std::string& path,
                                     const ParamSpace& space) {
  return parse_checkpoint(read_file(path), &space);
}

std::optional<CheckpointSummary> summarize_checkpoint_csv(
    const std::string& path) {
  try {
    const SearchTrace trace = parse_checkpoint(read_file(path), nullptr).trace;
    return CheckpointSummary{trace.size(), trace.best_seconds()};
  } catch (const std::exception&) {
    return std::nullopt;  // unreadable, checksum mismatch, malformed field
  }
}

}  // namespace portatune::tuner
