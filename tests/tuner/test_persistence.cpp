#include "tuner/persistence.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "support/checksum.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/random_search.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

SearchCheckpoint sample_checkpoint(QuadraticEvaluator& eval,
                                   std::size_t n = 25) {
  SearchOptions opt;
  opt.max_evals = n;
  opt.seed = 13;
  SearchCheckpoint snapshot;
  snapshot.trace = random_search(eval, opt);
  snapshot.draws = snapshot.trace.size();
  return snapshot;
}

SearchCheckpoint round_trip(const SearchCheckpoint& snapshot,
                            const ParamSpace& space) {
  std::stringstream buf;
  save_checkpoint_csv(buf, snapshot, space);
  return load_checkpoint_csv(buf, space);
}

TEST(Persistence, RoundTripsExactly) {
  // A reloaded T_a equals the saved one in every field: the entries with
  // their elapsed and wall-clock stamps, the clock, the failure stats and
  // the stop reason.
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  eval.fail_when = [](const ParamConfig& c) { return c[0] <= 2; };
  SearchOptions opt;
  opt.max_evals = 25;
  opt.seed = 13;
  opt.failure_budget.max_total = 5;
  SearchCheckpoint original;
  original.trace = random_search(eval, opt);
  original.trace.add_overhead(0.5);  // the clock runs past the last entry
  original.draws = original.trace.size() + 5;
  const SearchTrace& want = original.trace;
  ASSERT_FALSE(want.stop_reason().empty());
  ASSERT_GT(want.failure_stats().failures, 0u);

  const SearchCheckpoint loaded = round_trip(original, eval.space());
  const SearchTrace& got = loaded.trace;
  EXPECT_EQ(loaded.draws, original.draws);
  EXPECT_EQ(got.algorithm(), "RS");
  EXPECT_EQ(got.problem(), "quadratic");
  EXPECT_EQ(got.machine(), "M");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.entry(i).config, want.entry(i).config);
    EXPECT_EQ(got.entry(i).seconds, want.entry(i).seconds);
    EXPECT_EQ(got.entry(i).elapsed, want.entry(i).elapsed);
    EXPECT_EQ(got.entry(i).draw_index, want.entry(i).draw_index);
    EXPECT_EQ(got.entry(i).wall_unix, want.entry(i).wall_unix);
  }
  EXPECT_EQ(got.total_time(), want.total_time());
  EXPECT_EQ(got.stop_reason(), want.stop_reason());
  const FailureStats& gs = got.failure_stats();
  const FailureStats& ws = want.failure_stats();
  EXPECT_EQ(gs.attempts, ws.attempts);
  EXPECT_EQ(gs.failures, ws.failures);
  EXPECT_EQ(gs.transient, ws.transient);
  EXPECT_EQ(gs.deterministic, ws.deterministic);
  EXPECT_EQ(gs.timeouts, ws.timeouts);
  EXPECT_EQ(gs.overhead_seconds, ws.overhead_seconds);
}

TEST(Persistence, FileRoundTrip) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const auto original = sample_checkpoint(eval, 10);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  save_checkpoint_csv(path, original, eval.space());
  EXPECT_EQ(load_checkpoint_csv(path, eval.space()).trace.size(), 10u);
}

TEST(Persistence, LoadedTraceFitsSurrogates) {
  // The round-tripped T_a must be usable as transfer input.
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto loaded = round_trip(sample_checkpoint(eval, 40), eval.space());
  const auto data = loaded.trace.to_dataset(eval.space());
  EXPECT_EQ(data.num_rows(), 40u);
  EXPECT_EQ(data.num_features(), 4u);
}

TEST(Persistence, CheckpointRoundTripsPendingSuggestions) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchCheckpoint snapshot = sample_checkpoint(eval, 10);
  snapshot.draws = 14;
  snapshot.pending = {{0xdeadbeefcafef00dULL, 12}, {0x42ULL, 13}};

  const auto loaded = round_trip(snapshot, eval.space());

  EXPECT_EQ(loaded.draws, 14u);
  ASSERT_EQ(loaded.pending.size(), 2u);
  EXPECT_EQ(loaded.pending[0].first, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(loaded.pending[0].second, 12u);
  EXPECT_EQ(loaded.pending[1].first, 0x42ULL);
  EXPECT_EQ(loaded.pending[1].second, 13u);

  // Checkpoints with no outstanding suggestions stay byte-identical to
  // the pre-`# pending` format: the row is simply absent.
  snapshot.pending.clear();
  std::stringstream plain;
  save_checkpoint_csv(plain, snapshot, eval.space());
  EXPECT_EQ(plain.str().find("# pending"), std::string::npos);
}

TEST(Persistence, RejectsForeignFiles) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  std::stringstream bad("hello,world\n1,2\n");
  EXPECT_THROW(load_checkpoint_csv(bad, eval.space()), Error);
}

TEST(Persistence, RejectsMismatchedSpace) {
  QuadraticEvaluator a("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  std::stringstream buf;
  save_checkpoint_csv(buf, sample_checkpoint(a, 5), a.space());

  // A space with different parameter names must be rejected.
  ParamSpace other;
  other.add("x", range_values(0, 9));
  other.add("y", range_values(0, 9));
  other.add("z", range_values(0, 9));
  other.add("w", range_values(0, 9));
  EXPECT_THROW(load_checkpoint_csv(buf, other), Error);
}

/// Load `rows` under a valid magic, metadata and header (checksummed
/// like a real file, so only the rows are wrong) and expect the loader to
/// reject it with `why` in the message.
void expect_rows_rejected(const std::string& rows, const std::string& why) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  std::stringstream buf(append_checksum_footer(
      "# portatune-checkpoint v3,RS,quadratic,M\n"
      "# draws,1\n"
      "p0,p1,p2,p3,seconds,elapsed,draw_index,wall_unix\n" +
      rows));
  try {
    load_checkpoint_csv(buf, eval.space());
    FAIL() << "checkpoint loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(Persistence, RejectsValuesOutsideTheDomain) {
  expect_rows_rejected("99,0,0,0,1.5,1.5,0,0\n",  // p0 ranges over 0..9
                       "not in the domain of parameter p0");
}

TEST(Persistence, RejectsNegativeRunTimes) {
  expect_rows_rejected("1,2,3,4,-1.0,0,0,0\n", "bad run time");
}

TEST(Persistence, MalformedFieldsNameTheirRow) {
  expect_rows_rejected("1,2,3,4,1.5,1.5,abc,0\n",
                       "checkpoint row 1: malformed number 'abc'");
}

TEST(Persistence, MissingFileThrows) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  EXPECT_THROW(load_checkpoint_csv("/nonexistent/trace.csv", eval.space()),
               Error);
}

}  // namespace
}  // namespace portatune::tuner
