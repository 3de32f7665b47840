#include "service/surrogate_store.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/persistence.hpp"
#include "tuner/sampler.hpp"
#include "tuner/transfer.hpp"

namespace portatune::service {

namespace {

/// Filesystem-safe entry key fragment: alnum kept, everything else '-'.
std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
  return out;
}

std::string join_fingerprint(const std::vector<double>& fp) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < fp.size(); ++i) {
    if (i > 0) os << ';';
    os << fp[i];
  }
  return os.str();
}

std::vector<double> split_fingerprint(const std::string& s) {
  std::vector<double> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ';'))
    if (!item.empty()) out.push_back(std::stod(item));
  return out;
}

void note_quarantine(const std::string& what, const std::string& reason) {
  obs::MetricsRegistry::current().counter("store.quarantined").add(1);
  if (obs::enabled(obs::Severity::Warn))
    obs::emit(obs::make_instant(obs::Severity::Warn,
                                "store.entry_quarantined", "service",
                                {{"entry", what}, {"reason", reason}}));
}

}  // namespace

SurrogateStore::SurrogateStore(SurrogateStoreOptions opt)
    : opt_(std::move(opt)) {
  PT_REQUIRE(!opt_.dir.empty(), "surrogate store needs a directory");
  ensure_directory(opt_.dir);
  ensure_directory(opt_.dir + "/entries");
  if (file_exists(opt_.dir + "/index.csv")) load_index();
}

std::string SurrogateStore::entry_dir(const StoreEntry& entry) const {
  return opt_.dir + "/entries/" + entry.key;
}

/// First free path under quarantine/ for `name` (suffixing -2, -3, ...
/// when a previous quarantine already used it).
std::string SurrogateStore::quarantine_slot(const std::string& name) const {
  std::error_code ec;
  std::filesystem::create_directories(opt_.dir + "/quarantine", ec);
  std::string dst = opt_.dir + "/quarantine/" + name;
  for (std::size_t n = 2; std::filesystem::exists(dst, ec); ++n)
    dst = opt_.dir + "/quarantine/" + name + "-" + std::to_string(n);
  return dst;
}

void SurrogateStore::quarantine(const std::string& key,
                                const std::string& reason) {
  std::error_code ec;
  const std::string src = opt_.dir + "/entries/" + key;
  if (std::filesystem::exists(src, ec))
    std::filesystem::rename(src, quarantine_slot(key), ec);
  // Even when the move failed, drop the entry from the index: nothing
  // may serve it again, and the next load skips unindexed directories.
  const auto it = std::remove_if(
      entries_.begin(), entries_.end(),
      [&](const StoreEntry& e) { return e.key == key; });
  const bool indexed = it != entries_.end();
  entries_.erase(it, entries_.end());
  ++quarantined_;
  note_quarantine(key, reason);
  if (indexed && !loading_) save_index();
}

const StoreEntry* SurrogateStore::find(const std::string& key) const {
  for (const auto& e : entries_)
    if (e.key == key) return &e;
  return nullptr;
}

const StoreEntry& SurrogateStore::put(const std::string& problem,
                                      const std::string& machine,
                                      const tuner::SearchTrace& trace,
                                      const tuner::ParamSpace& space,
                                      std::vector<double> fingerprint) {
  PT_REQUIRE(!trace.empty(), "refusing to store an empty trace");
  PT_REQUIRE(fingerprint.size() >= 3,
             "fingerprint too short to index (need >= 3 probes)");
  StoreEntry* slot = nullptr;
  for (auto& e : entries_)
    if (e.problem == problem && e.machine == machine) slot = &e;
  if (slot == nullptr) {
    StoreEntry e;
    e.key = sanitize(problem) + "_" + sanitize(machine);
    // Key collisions (two machines sanitizing identically) get a suffix.
    std::size_t n = 1;
    while (find(e.key) != nullptr)
      e.key = sanitize(problem) + "_" + sanitize(machine) + "_" +
              std::to_string(++n);
    entries_.push_back(std::move(e));
    slot = &entries_.back();
  }
  slot->problem = problem;
  slot->machine = machine;
  slot->evals = trace.size();
  slot->best_seconds = trace.best_seconds();
  slot->fingerprint = std::move(fingerprint);

  ensure_directory(entry_dir(*slot));
  tuner::SearchCheckpoint stored;
  stored.trace = trace;
  stored.draws = trace.size();  // never resumed; recorded for the format
  // Atomic trace first, index after: a crash between the two leaves an
  // orphaned trace file, never an index line without its trace.
  tuner::save_checkpoint_csv(entry_dir(*slot) + "/trace.csv", stored, space);
  save_index();
  return *slot;
}

std::optional<StoreMatch> SurrogateStore::nearest(
    const std::string& problem, std::span<const double> fingerprint) const {
  std::optional<StoreMatch> best;
  for (const auto& e : entries_) {
    if (e.problem != problem) continue;
    if (e.fingerprint.size() != fingerprint.size()) continue;
    if (fingerprint.size() < 3) continue;
    const tuner::SimilarityReport report =
        tuner::summarize_probe_vectors(e.fingerprint, fingerprint);
    const tuner::TransferAdvice advice = tuner::advise(report);
    if (advice == tuner::TransferAdvice::DoNotTransfer) continue;
    if (!best || report.spearman > best->report.spearman)
      best = StoreMatch{e, report, advice};
  }
  return best;
}

tuner::SearchTrace SurrogateStore::load_trace(
    const StoreEntry& entry, const tuner::ParamSpace& space) const {
  return tuner::load_checkpoint_csv(entry_dir(entry) + "/trace.csv", space)
      .trace;
}

ml::RegressorPtr SurrogateStore::load_surrogate(
    const StoreEntry& entry, const tuner::ParamSpace& space) const {
  const tuner::SearchTrace trace = load_trace(entry, space);
  return tuner::fit_surrogate(trace, space, opt_.forest);
}

void SurrogateStore::save_index() const {
  // Simple line format, atomically replaced as a whole:
  //   # portatune-store v1
  //   key,problem,machine,evals,best_seconds,fp0;fp1;...
  std::ostringstream os;
  os << "# portatune-store v1\n";
  os.precision(17);
  for (const auto& e : entries_)
    os << e.key << ',' << e.problem << ',' << e.machine << ',' << e.evals
       << ',' << e.best_seconds << ',' << join_fingerprint(e.fingerprint)
       << '\n';
  atomic_write_file(opt_.dir + "/index.csv", os.str());
}

void SurrogateStore::load_index() {
  loading_ = true;
  const std::size_t quarantined_before = quarantined_;
  const std::string index_path = opt_.dir + "/index.csv";
  const std::string text = read_file(index_path);
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) ||
      line.rfind("# portatune-store v1", 0) != 0) {
    // Not our index at all (overwritten, torn at byte zero): move the
    // file aside whole and start empty — startup must survive it.
    std::error_code ec;
    std::filesystem::rename(index_path, quarantine_slot("index.csv"), ec);
    ++quarantined_;
    note_quarantine("index.csv",
                    "'" + index_path + "' is not a surrogate store index");
    loading_ = false;
    return;
  }
  std::string rejected_lines;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    StoreEntry e;
    try {
      std::istringstream ls(line);
      std::string evals, best, fp;
      PT_REQUIRE(std::getline(ls, e.key, ',') &&
                     std::getline(ls, e.problem, ',') &&
                     std::getline(ls, e.machine, ',') &&
                     std::getline(ls, evals, ',') &&
                     std::getline(ls, best, ',') && std::getline(ls, fp),
                 "malformed store index line: " + line);
      e.evals = std::stoul(evals);
      e.best_seconds = std::stod(best);
      e.fingerprint = split_fingerprint(fp);
    } catch (const std::exception& ex) {
      // A torn or hand-edited line quarantines that *line*, not the
      // store: survivors keep serving.
      rejected_lines += line + "\n";
      ++quarantined_;
      note_quarantine("index line", ex.what());
      continue;
    }
    // Entries whose trace file vanished are dropped silently: the index
    // is a cache of the entries/ directory, not the other way round.
    const std::string trace_path =
        opt_.dir + "/entries/" + e.key + "/trace.csv";
    if (!file_exists(trace_path)) continue;
    // Verify the trace's checksum footer up front — cheap (one hash
    // over the file) and it catches truncation and byte flips before a
    // session warms from the entry.
    try {
      const std::string what = "store entry '" + e.key + "' trace";
      strip_verified_checksum_footer(read_file(trace_path), what.c_str());
    } catch (const std::exception& ex) {
      quarantine(e.key, ex.what());
      continue;
    }
    entries_.push_back(std::move(e));
  }
  loading_ = false;
  if (!rejected_lines.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.dir + "/quarantine", ec);
    std::ofstream out(opt_.dir + "/quarantine/index_rejected.csv",
                      std::ios::app);
    out << rejected_lines;
  }
  if (quarantined_ != quarantined_before) save_index();
}

std::vector<double> measure_fingerprint(tuner::Evaluator& eval,
                                        std::size_t probes) {
  PT_REQUIRE(probes >= 3, "need at least three fingerprint probes");
  // Walk the canonical probe stream, skipping configurations that fail.
  // A failure here is a deterministic property of the configuration (an
  // invalid tile combination, say), not of the machine, so every machine
  // skips the same draws and the vectors stay element-aligned — the same
  // discipline measure_similarity applies when probing two machines
  // side by side.
  tuner::ConfigStream stream(eval.space(), tuner::kFingerprintSeed);
  std::vector<double> fp;
  fp.reserve(probes);
  std::size_t attempts = 0;
  while (fp.size() < probes && attempts < probes * 50) {
    ++attempts;
    auto c = stream.next();
    if (!c) break;
    const tuner::EvalResult r = eval.evaluate(*c);
    if (!r.ok) continue;
    fp.push_back(r.seconds);
  }
  PT_REQUIRE(fp.size() >= 3,
             "too few fingerprint probes succeeded (" +
                 std::to_string(fp.size()) + " of " +
                 std::to_string(probes) + " requested)");
  return fp;
}

}  // namespace portatune::service
