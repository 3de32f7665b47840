// SurrogateStore: persistence round-trips, similarity-indexed lookup
// (nearest machine wins, hostile machines are gated out), and the
// deterministic-refit contract of load_surrogate().
#include "service/surrogate_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/tuning_config.hpp"
#include "tuner/random_search.hpp"
#include "tuner/sampler.hpp"

namespace portatune::service {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "portatune_" + name;
  std::remove((dir + "/index.csv").c_str());
  return dir;
}

SurrogateStoreOptions store_opt(const std::string& name) {
  SurrogateStoreOptions opt;
  opt.dir = fresh_dir(name);
  return opt;
}

/// A short RS trace on (problem, machine) — store test fodder.
tuner::SearchTrace make_trace(apps::EvaluatorStack& stack,
                              std::size_t evals = 30,
                              std::uint64_t seed = 42) {
  tuner::SearchOptions opt;
  opt.max_evals = evals;
  opt.seed = seed;
  return tuner::random_search(stack, opt);
}

TEST(SurrogateStoreTest, PutFindRoundTripAcrossProcesses) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere");
  auto stack = cfg.make_stack();
  const tuner::SearchTrace trace = make_trace(*stack);
  const std::vector<double> fp = measure_fingerprint(*stack, 8);

  const std::string dir = fresh_dir("roundtrip");
  std::string key;
  {
    SurrogateStoreOptions opt;
    opt.dir = dir;
    SurrogateStore store(opt);
    const StoreEntry& e = store.put("LU", "Westmere", trace, stack->space(),
                                    fp);
    key = e.key;
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(e.evals, trace.size());
    EXPECT_DOUBLE_EQ(e.best_seconds, trace.best_seconds());
  }

  // A second "process" reopens the same directory and sees the entry
  // bit-for-bit: the fingerprint survives the 17-digit text round trip.
  SurrogateStoreOptions opt;
  opt.dir = dir;
  SurrogateStore reopened(opt);
  ASSERT_EQ(reopened.size(), 1u);
  const StoreEntry* e = reopened.find(key);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->problem, "LU");
  EXPECT_EQ(e->machine, "Westmere");
  EXPECT_EQ(e->evals, trace.size());
  ASSERT_EQ(e->fingerprint.size(), fp.size());
  for (std::size_t i = 0; i < fp.size(); ++i)
    EXPECT_DOUBLE_EQ(e->fingerprint[i], fp[i]);

  const tuner::SearchTrace loaded = reopened.load_trace(*e, stack->space());
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded.entry(i).config, trace.entry(i).config);
    EXPECT_DOUBLE_EQ(loaded.entry(i).seconds, trace.entry(i).seconds);
    EXPECT_EQ(loaded.entry(i).draw_index, trace.entry(i).draw_index);
  }
}

TEST(SurrogateStoreTest, PutReplacesTheSamePairInPlace) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere");
  auto stack = cfg.make_stack();
  const std::vector<double> fp = measure_fingerprint(*stack, 8);

  SurrogateStore store(store_opt("replace"));
  const std::string key1 =
      store.put("LU", "Westmere", make_trace(*stack, 20), stack->space(), fp)
          .key;
  const StoreEntry& second =
      store.put("LU", "Westmere", make_trace(*stack, 30), stack->space(), fp);
  EXPECT_EQ(store.size(), 1u);  // replaced, not duplicated
  EXPECT_EQ(second.key, key1);
  EXPECT_EQ(second.evals, 30u);
}

TEST(SurrogateStoreTest, NearestPrefersTheMoreSimilarMachine) {
  const apps::TuningConfig base = apps::TuningConfig{}.problem("LU");
  auto westmere =
      apps::TuningConfig(base).machine("Westmere").make_stack();
  auto sandybridge =
      apps::TuningConfig(base).machine("Sandybridge").make_stack();

  const std::vector<double> fp_w = measure_fingerprint(*westmere, 16);
  const std::vector<double> fp_s = measure_fingerprint(*sandybridge, 16);
  // The skip-failed-draws discipline keeps the vectors element-aligned.
  ASSERT_EQ(fp_w.size(), fp_s.size());

  SurrogateStore store(store_opt("nearest"));
  store.put("LU", "Westmere", make_trace(*westmere), westmere->space(), fp_w);
  store.put("LU", "Sandybridge", make_trace(*sandybridge),
            sandybridge->space(), fp_s);

  // Querying with Sandybridge's own fingerprint must find the exact
  // match (probe Spearman 1.0), not the merely-similar Westmere.
  const auto self = store.nearest("LU", fp_s);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->entry.machine, "Sandybridge");
  EXPECT_DOUBLE_EQ(self->report.spearman, 1.0);

  // The paper's similar x86 pair stays mutually admissible: a Westmere
  // query against a store holding only Sandybridge still transfers.
  SurrogateStore only_s(store_opt("nearest_one"));
  only_s.put("LU", "Sandybridge", make_trace(*sandybridge),
             sandybridge->space(), fp_s);
  const auto cross = only_s.nearest("LU", fp_w);
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(cross->entry.machine, "Sandybridge");
  EXPECT_NE(cross->advice, tuner::TransferAdvice::DoNotTransfer);
}

TEST(SurrogateStoreTest, NearestGatesOutHostileAndMismatchedEntries) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere");
  auto stack = cfg.make_stack();
  const tuner::SearchTrace trace = make_trace(*stack);

  // Query fingerprint: ascending ranks. Hostile entry: the same values
  // reversed — probe Spearman -1, advice DoNotTransfer.
  std::vector<double> query = measure_fingerprint(*stack, 16);
  std::sort(query.begin(), query.end());
  std::vector<double> hostile(query.rbegin(), query.rend());

  SurrogateStore store(store_opt("hostile"));
  store.put("LU", "X-Gene", trace, stack->space(), hostile);
  // An anti-correlated surrogate must never warm a session, no matter
  // how empty the store is.
  EXPECT_FALSE(store.nearest("LU", query).has_value());

  // Wrong problem and wrong fingerprint length are skipped outright.
  store.put("ATAX", "Westmere", trace, stack->space(), query);
  EXPECT_FALSE(store.nearest("LU", query).has_value());
  const std::vector<double> short_fp(query.begin(), query.begin() + 4);
  EXPECT_FALSE(store.nearest("ATAX", short_fp).has_value());
}

TEST(SurrogateStoreTest, LoadSurrogateRefitsDeterministically) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere");
  auto stack = cfg.make_stack();
  const tuner::SearchTrace trace = make_trace(*stack, 40);

  SurrogateStore store(store_opt("refit"));
  const StoreEntry& e = store.put("LU", "Westmere", trace, stack->space(),
                                  measure_fingerprint(*stack, 8));

  const ml::RegressorPtr a = store.load_surrogate(e, stack->space());
  const ml::RegressorPtr b = store.load_surrogate(e, stack->space());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Same trace + same hyperparameters + same seed -> the same forest:
  // two processes loading one entry agree on every prediction.
  tuner::ConfigStream stream(stack->space(), 5);
  for (int i = 0; i < 25; ++i) {
    const auto c = *stream.next();
    const auto enc = stack->space().features(c);
    EXPECT_DOUBLE_EQ(a->predict(enc), b->predict(enc));
  }
}

TEST(SurrogateStoreTest, MeasureFingerprintSkipsFailedDrawsConsistently) {
  // Fingerprints of two machines are element-aligned because failure is
  // a property of the configuration, not the machine.
  auto w = apps::TuningConfig{}.problem("LU").machine("Westmere")
               .make_stack();
  auto p = apps::TuningConfig{}.problem("LU").machine("Power7").make_stack();
  const auto fp_w = measure_fingerprint(*w, 12);
  const auto fp_p = measure_fingerprint(*p, 12);
  EXPECT_EQ(fp_w.size(), 12u);
  EXPECT_EQ(fp_p.size(), 12u);
  // Deterministic: re-measuring the same machine reproduces the vector.
  const auto again = measure_fingerprint(*w, 12);
  ASSERT_EQ(again.size(), fp_w.size());
  for (std::size_t i = 0; i < fp_w.size(); ++i)
    EXPECT_DOUBLE_EQ(again[i], fp_w[i]);
}

}  // namespace
}  // namespace portatune::service
