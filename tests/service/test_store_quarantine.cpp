// Store corruption fuzzing: truncations, byte flips, forged checksum
// footers, and index damage. The contract under test is uniform — the
// store never crashes on corrupt state, it quarantines the damaged piece
// (counted, evented) and keeps serving every survivor.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/tuning_config.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "service/surrogate_store.hpp"
#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "tuner/random_search.hpp"

namespace portatune::service {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A store with two real LU entries (Westmere + Sandybridge) in a fresh
/// per-test directory; exposes the second entry's trace file as the fuzz
/// target and the survivor's fingerprint for nearest() checks.
class StoreQuarantineTest : public testing::Test {
 protected:
  StoreQuarantineTest() : redirect_(registry_) {}

  void build(const std::string& name) {
    dir_ = testing::TempDir() + "portatune_quarantine_" + name;
    std::filesystem::remove_all(dir_);
    auto westmere =
        apps::TuningConfig{}.problem("LU").machine("Westmere").make_stack();
    auto sandybridge = apps::TuningConfig{}
                           .problem("LU")
                           .machine("Sandybridge")
                           .make_stack();
    fp_w_ = measure_fingerprint(*westmere, 8);
    const std::vector<double> fp_s = measure_fingerprint(*sandybridge, 8);
    tuner::SearchOptions ro;
    ro.max_evals = 20;
    ro.seed = 42;
    SurrogateStoreOptions opt;
    opt.dir = dir_;
    SurrogateStore store(opt);
    survivor_key_ = store.put("LU", "Westmere",
                              tuner::random_search(*westmere, ro),
                              westmere->space(), fp_w_)
                        .key;
    victim_key_ = store.put("LU", "Sandybridge",
                            tuner::random_search(*sandybridge, ro),
                            sandybridge->space(), fp_s)
                      .key;
    victim_trace_ = dir_ + "/entries/" + victim_key_ + "/trace.csv";
    pristine_ = read_all(victim_trace_);
    ASSERT_FALSE(pristine_.empty());
  }

  SurrogateStore reopen() {
    SurrogateStoreOptions opt;
    opt.dir = dir_;
    return SurrogateStore(opt);
  }

  /// The uniform post-corruption assertion: the victim is quarantined
  /// (moved, not deleted), the survivor still serves nearest().
  void expect_quarantined_and_serving(SurrogateStore& store) {
    EXPECT_EQ(store.size(), 1u);
    EXPECT_GE(store.quarantined(), 1u);
    EXPECT_EQ(store.find(victim_key_), nullptr);
    EXPECT_FALSE(
        std::filesystem::exists(dir_ + "/entries/" + victim_key_));
    EXPECT_TRUE(
        std::filesystem::exists(dir_ + "/quarantine/" + victim_key_));
    const auto match = store.nearest("LU", fp_w_);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->entry.key, survivor_key_);
  }

  obs::MetricsRegistry registry_;
  obs::ScopedMetricsRedirect redirect_;
  std::string dir_, survivor_key_, victim_key_, victim_trace_, pristine_;
  std::vector<double> fp_w_;
};

TEST_F(StoreQuarantineTest, TruncationFuzz) {
  // Every truncation point — mid-payload, mid-footer, empty file — lands
  // in quarantine, never in a crash or a half-parsed entry. Quarantining
  // rewrites the index, so each point starts from a freshly built store.
  int round = 0;
  for (const double frac : {0.0, 0.3, 0.5, 0.9, 0.99}) {
    build("truncate" + std::to_string(round++));
    write_all(victim_trace_,
              pristine_.substr(
                  0, static_cast<std::size_t>(
                         static_cast<double>(pristine_.size()) * frac)));
    SurrogateStore store = reopen();
    expect_quarantined_and_serving(store);
  }
}

TEST_F(StoreQuarantineTest, ByteFlipFuzz) {
  // FNV-1a's per-byte bijection guarantees any single flipped bit
  // changes the final hash, so every flip position must be caught —
  // including flips inside the checksum footer itself.
  const std::size_t positions[] = {0, 1, 7, 64, 128};
  for (std::size_t i = 0; i < std::size(positions); ++i) {
    build("flip" + std::to_string(i));
    std::string mutated = pristine_;
    const std::size_t pos = positions[i] % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    write_all(victim_trace_, mutated);
    SurrogateStore store = reopen();
    expect_quarantined_and_serving(store);
  }
  // And a flip in the final footer line specifically.
  build("flipfooter");
  std::string mutated = pristine_;
  mutated[mutated.size() - 3] =
      static_cast<char>(mutated[mutated.size() - 3] ^ 0x01);
  write_all(victim_trace_, mutated);
  SurrogateStore store = reopen();
  expect_quarantined_and_serving(store);
}

TEST_F(StoreQuarantineTest, QuarantineCounterAndMetric) {
  build("metric");
  write_all(victim_trace_, "garbage\n");
  SurrogateStore store = reopen();
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_EQ(registry_.counter("store.quarantined").value(), 1u);
}

TEST_F(StoreQuarantineTest, TornIndexLineRejectsLineNotStore) {
  build("indexline");
  // Append a torn line to the index: that *line* is rejected (kept in
  // quarantine/index_rejected.csv for the operator), both real entries
  // survive.
  std::ofstream(dir_ + "/index.csv", std::ios::app)
      << "torn,line,without,enough\n";
  SurrogateStore store = reopen();
  EXPECT_EQ(store.size(), 2u);
  EXPECT_GE(store.quarantined(), 1u);
  const std::string rejected =
      read_all(dir_ + "/quarantine/index_rejected.csv");
  EXPECT_NE(rejected.find("torn,line"), std::string::npos);
}

TEST_F(StoreQuarantineTest, ForeignIndexHeaderQuarantinesIndexWhole) {
  build("indexheader");
  write_all(dir_ + "/index.csv", "definitely,not,a,store,index\n");
  SurrogateStore store = reopen();  // must not throw
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GE(store.quarantined(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/index.csv"));
}

TEST_F(StoreQuarantineTest, ForgedChecksumIsCaughtAtWarmStartNotCrash) {
  // A forged footer defeats the load-time checksum (the hash matches the
  // garbage), so the entry survives loading — the *use* site must catch
  // it: warming a session from it degrades to a cold open and
  // quarantines the entry. The client never sees a failure.
  TuningServiceOptions so;
  so.data_dir = testing::TempDir() + "portatune_forged_quarantine";
  std::filesystem::remove_all(so.data_dir);
  so.fingerprint_probes = 6;
  TuningService svc(so);
  apps::TuningConfig cfg;
  cfg.problem("LU").machine("Westmere").max_evals(20).seed(5);
  svc.open("donor", cfg).step(10);
  const tuner::SearchTrace trace = svc.find("donor")->close();
  ASSERT_GT(trace.size(), 0u);
  ASSERT_EQ(svc.store().size(), 1u);
  const std::string key = svc.store().entries().front().key;
  const std::string trace_path =
      svc.store().dir() + "/entries/" + key + "/trace.csv";
  ASSERT_TRUE(std::filesystem::exists(trace_path));
  atomic_write_file(trace_path,
                    append_checksum_footer("not,a,trace,at,all\n"));

  SessionHandle& h = svc.open("victim", cfg);
  EXPECT_FALSE(h.warm());  // degraded to cold, not failed
  EXPECT_EQ(svc.store().quarantined(), 1u);
  EXPECT_EQ(svc.store().size(), 0u);
  EXPECT_TRUE(
      std::filesystem::exists(svc.store().dir() + "/quarantine/" + key));
}

}  // namespace
}  // namespace portatune::service
