// Persistent surrogate store keyed by (problem, machine fingerprint).
//
// The paper's transferable asset is T_a — the (configuration, run time)
// trace a surrogate is fitted from. The store persists exactly that: one
// entry per (problem, machine), holding the training trace (a checkpoint
// CSV, tuner/persistence.hpp) plus the machine's *fingerprint* — the run
// times of the canonical seeded probe set (tuner::probe_configs with
// kFingerprintSeed), measured on that machine. Surrogates themselves are
// never serialized: a forest refit from the same trace with the same
// hyperparameters and seed is deterministic, so load_surrogate() refits
// on demand and two processes loading the same entry agree exactly.
//
// Similarity-indexed lookup: nearest() compares a querying machine's
// fingerprint against every stored entry of the same problem with
// tuner::summarize_probe_vectors — the two vectors are aligned
// element-for-element because both sides measured the same canonical
// probe draws — and gates on tuner::advise(): an entry whose advice is
// DoNotTransfer never warms a session, no matter how empty the store is
// (a hostile X-Gene-style surrogate is worse than cold). Among the
// admissible entries the highest probe Spearman wins.
//
// Layout under dir/:
//   index.csv                 one line per entry (atomic rewrite)
//   entries/<key>/trace.csv   the training trace as a checkpoint CSV
//                             (atomic write)
//   quarantine/               corrupt state moved aside, never deleted
//
// Corruption tolerance: the store is shared, long-lived state, so one
// bad entry must never cost the daemon its startup. Loading verifies
// every entry's trace checksum; an entry that fails (torn file, flipped
// bytes, bad footer) is *quarantined* — its directory moved to
// quarantine/, the index rewritten without it — and counted under the
// `store.quarantined` metric with a Warn `store.entry_quarantined`
// event. Malformed index lines are appended to quarantine/
// index_rejected.csv the same way, and an index.csv that is not a store
// index at all is moved aside whole. quarantine() is also the escape
// hatch for corruption detected later (a forged-checksum trace that
// parses no further, or an entry in the retired trace-v3 format), used
// by the service's warm-start path.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/model.hpp"
#include "tuner/similarity.hpp"
#include "tuner/trace.hpp"

namespace portatune::service {

struct StoreEntry {
  std::string key;      ///< directory name under entries/, unique
  std::string problem;
  std::string machine;  ///< descriptive only; matching is by fingerprint
  std::size_t evals = 0;
  double best_seconds = 0.0;
  std::vector<double> fingerprint;  ///< canonical probe run times
};

struct SurrogateStoreOptions {
  std::string dir = "portatune_store";
  /// Forest hyperparameters for load_surrogate() refits. The seed is
  /// part of the determinism contract: same trace + same params -> same
  /// forest in every process.
  ml::ForestParams forest{};
};

/// A nearest() result: the winning entry plus the probe similarity that
/// admitted it.
struct StoreMatch {
  StoreEntry entry;
  tuner::SimilarityReport report;
  tuner::TransferAdvice advice = tuner::TransferAdvice::Transfer;
};

/// Not thread-safe: the owning TuningService serializes access.
class SurrogateStore {
 public:
  /// Opens (and if necessary creates) the store directory; loads the
  /// index when one exists.
  explicit SurrogateStore(SurrogateStoreOptions opt = {});

  /// Persist a training trace + fingerprint for (problem, machine).
  /// An existing entry for the same pair is replaced in place (same
  /// key); otherwise a new key is minted. Returns the stored entry.
  const StoreEntry& put(const std::string& problem,
                        const std::string& machine,
                        const tuner::SearchTrace& trace,
                        const tuner::ParamSpace& space,
                        std::vector<double> fingerprint);

  const std::vector<StoreEntry>& entries() const noexcept {
    return entries_;
  }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Entries (and index lines) quarantined since construction —
  /// including load-time quarantines, so a freshly opened store already
  /// reports what it moved aside.
  std::size_t quarantined() const noexcept { return quarantined_; }

  /// Move entry `key`'s directory to quarantine/, drop it from the
  /// index, count it and emit the Warn event. Safe for unknown keys
  /// (counts the quarantine, nothing to move). Never throws: failure to
  /// move still drops the entry from the index, which is what loading
  /// trusts.
  void quarantine(const std::string& key, const std::string& reason);

  /// Entry by key; nullptr when absent.
  const StoreEntry* find(const std::string& key) const;

  /// Most similar admissible entry for `problem` given the querying
  /// machine's fingerprint: aligned probe vectors are summarized, entries
  /// advised DoNotTransfer are skipped, the highest Spearman wins (ties
  /// break on key order, so lookup is deterministic). nullopt when no
  /// entry is admissible.
  std::optional<StoreMatch> nearest(
      const std::string& problem,
      std::span<const double> fingerprint) const;

  /// Load an entry's training trace (validating against `space`).
  tuner::SearchTrace load_trace(const StoreEntry& entry,
                                const tuner::ParamSpace& space) const;

  /// Refit the entry's surrogate deterministically from its stored trace.
  ml::RegressorPtr load_surrogate(const StoreEntry& entry,
                                  const tuner::ParamSpace& space) const;

  const std::string& dir() const noexcept { return opt_.dir; }

 private:
  void save_index() const;
  void load_index();
  std::string entry_dir(const StoreEntry& entry) const;
  std::string quarantine_slot(const std::string& name) const;

  SurrogateStoreOptions opt_;
  std::vector<StoreEntry> entries_;
  std::size_t quarantined_ = 0;
  bool loading_ = false;  ///< suppress per-quarantine index rewrites
};

/// Measure the canonical fingerprint of a machine behind `eval`: the run
/// times of the first `probes` *successful* canonical probe draws
/// (kFingerprintSeed; failing draws are configuration-invalidity, which
/// is machine-independent, so every machine skips the same draws and the
/// vectors stay aligned). Routed through whatever stack `eval` is — in
/// the service, the shared EvalCache sits on top, so re-fingerprinting a
/// known machine is free. Throws when fewer than three probes succeed.
std::vector<double> measure_fingerprint(tuner::Evaluator& eval,
                                        std::size_t probes);

}  // namespace portatune::service
