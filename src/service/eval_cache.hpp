// Shared cross-session evaluation cache.
//
// Every service session measures configurations of "a problem on a
// machine" — a pure function for the simulated backends — so two sessions
// tuning the same (problem, machine) repeat each other's work, and a
// resumed session repeats its own. EvalCache is the service-wide memo:
// keyed by (scope, config hash) where scope is "problem|machine", LRU
// bounded, admitting successful measurements only (failures keep their
// live retry/quarantine semantics — caching a transient failure would
// make it deterministic).
//
// Determinism: a hit is returned as EvalResult::success(seconds) —
// attempts = 1, no overhead — which on the pure simulated backends is
// byte-identical to what a fresh evaluation would produce. Cached and
// uncached sessions therefore record identical traces; only wall-clock
// and the hit/miss counters differ. (Journaled experiment runs bypass
// the cache entirely: their parity guarantee is against evaluator stacks
// with fault injection, where a memoised result would NOT be identical.)
//
// Observability: hits/misses/insertions/evictions are counted locally
// and published to the process metrics registry (service.cache.*), so
// the metrics time-series and the `stats` op see cache traffic live.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "tuner/evaluator.hpp"

namespace portatune::service {

struct EvalCacheOptions {
  /// Maximum resident entries; the least recently used entry is evicted
  /// on overflow. Must be positive.
  std::size_t capacity = 1 << 16;
};

struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;
};

/// Thread-safe LRU memo of successful evaluations. Sessions share one
/// instance through their CachedEvaluator layers.
class EvalCache {
 public:
  explicit EvalCache(EvalCacheOptions opt = {});

  /// Measured run time of (scope, config hash), or nullopt. Counts a
  /// hit/miss and refreshes recency on hit.
  std::optional<double> lookup(const std::string& scope,
                               std::uint64_t config_hash);

  /// Admit a successful measurement (idempotent for an existing key:
  /// refreshes recency, keeps the first value — backends are
  /// deterministic, so the values agree anyway).
  void insert(const std::string& scope, std::uint64_t config_hash,
              double seconds);

  EvalCacheStats stats() const;

  /// Push the current counters into the process metrics registry as
  /// service.cache.{hits,misses,insertions,evictions} counters and a
  /// service.cache.size gauge. Called by the service's status paths.
  void publish_metrics() const;

 private:
  struct Key {
    std::string scope;
    std::uint64_t hash = 0;
    bool operator==(const Key& o) const {
      return hash == o.hash && scope == o.scope;
    }
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      // FNV-1a over the scope, folded with the config hash.
      std::uint64_t h = 1469598103934665603ull;
      for (char c : k.scope) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h ^ k.hash);
    }
  };
  struct Entry {
    Key key;
    double seconds = 0.0;
  };

  mutable std::mutex mutex_;
  EvalCacheOptions opt_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHasher> index_;
  EvalCacheStats stats_;
};

/// Evaluator decorator that consults the shared cache before touching the
/// inner evaluator. Hits never reach the backend; misses are evaluated
/// and (when successful) admitted. Batch windows preserve result order:
/// result i always corresponds to batch[i], with the misses evaluated
/// through the inner evaluator's own batch path (so a ParallelEvaluator
/// underneath still fans the uncached remainder out).
class CachedEvaluator final : public tuner::Evaluator {
 public:
  /// Both the inner evaluator and the cache must outlive this object.
  CachedEvaluator(tuner::Evaluator& inner, EvalCache& cache);

  const tuner::ParamSpace& space() const override { return inner_.space(); }
  tuner::EvalResult evaluate(const tuner::ParamConfig& config) override;
  std::vector<tuner::EvalResult> evaluate_batch(
      std::span<const tuner::ParamConfig> batch) override;
  tuner::EvalCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  tuner::Evaluator* inner_evaluator() noexcept override { return &inner_; }
  std::string problem_name() const override { return inner_.problem_name(); }
  std::string machine_name() const override { return inner_.machine_name(); }

  const std::string& scope() const noexcept { return scope_; }

 private:
  tuner::Evaluator& inner_;
  EvalCache& cache_;
  std::string scope_;  ///< "problem|machine", fixed at construction
};

}  // namespace portatune::service
