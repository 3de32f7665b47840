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

SearchTrace sample_trace(QuadraticEvaluator& eval, std::size_t n = 25) {
  RandomSearchOptions opt;
  opt.max_evals = n;
  opt.seed = 13;
  return random_search(eval, opt);
}

TEST(Persistence, RoundTripsExactly) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto original = sample_trace(eval);

  std::stringstream buf;
  save_trace_csv(buf, original, eval.space());
  const auto loaded = load_trace_csv(buf, eval.space());

  EXPECT_EQ(loaded.algorithm(), "RS");
  EXPECT_EQ(loaded.problem(), "quadratic");
  EXPECT_EQ(loaded.machine(), "M");
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.entry(i).config, original.entry(i).config);
    EXPECT_DOUBLE_EQ(loaded.entry(i).seconds, original.entry(i).seconds);
    EXPECT_EQ(loaded.entry(i).draw_index, original.entry(i).draw_index);
  }
  EXPECT_DOUBLE_EQ(loaded.best_seconds(), original.best_seconds());
}

TEST(Persistence, FileRoundTrip) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const auto original = sample_trace(eval, 10);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  save_trace_csv(path, original, eval.space());
  const auto loaded = load_trace_csv(path, eval.space());
  EXPECT_EQ(loaded.size(), 10u);
}

TEST(Persistence, LoadedTraceFitsSurrogates) {
  // The round-tripped T_a must be usable as transfer input.
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto original = sample_trace(eval, 40);
  std::stringstream buf;
  save_trace_csv(buf, original, eval.space());
  const auto loaded = load_trace_csv(buf, eval.space());
  const auto data = loaded.to_dataset(eval.space());
  EXPECT_EQ(data.num_rows(), 40u);
  EXPECT_EQ(data.num_features(), 4u);
}

TEST(Persistence, CheckpointRoundTripsPendingSuggestions) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchCheckpoint snapshot;
  snapshot.trace = sample_trace(eval, 10);
  snapshot.draws = 14;
  snapshot.pending = {{0xdeadbeefcafef00dULL, 12}, {0x42ULL, 13}};

  std::stringstream buf;
  save_checkpoint_csv(buf, snapshot, eval.space());
  const auto loaded = load_checkpoint_csv(buf, eval.space());

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
  EXPECT_THROW(load_trace_csv(bad, eval.space()), Error);
}

TEST(Persistence, RejectsMismatchedSpace) {
  QuadraticEvaluator a("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto trace = sample_trace(a, 5);
  std::stringstream buf;
  save_trace_csv(buf, trace, a.space());

  // A space with different parameter names must be rejected.
  ParamSpace other;
  other.add("x", range_values(0, 9));
  other.add("y", range_values(0, 9));
  other.add("z", range_values(0, 9));
  other.add("w", range_values(0, 9));
  EXPECT_THROW(load_trace_csv(buf, other), Error);
}

/// Load `payload` (checksummed like a real file, so only the rows are
/// wrong) and expect the loader to reject it with `why` in the message.
void expect_trace_rejected(const std::string& payload, const std::string& why) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  std::stringstream buf(append_checksum_footer(payload));
  try {
    load_trace_csv(buf, eval.space());
    FAIL() << "trace loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(Persistence, RejectsValuesOutsideTheDomain) {
  expect_trace_rejected(
      "# portatune-trace v3,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "99,0,0,0,1.5,0,0\n",  // 99 is not a value of p0 (0..9)
      "not in the domain of parameter p0");
}

TEST(Persistence, RejectsNegativeRunTimes) {
  expect_trace_rejected(
      "# portatune-trace v3,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "1,2,3,4,-1.0,0,0\n",
      "bad run time");
}

TEST(Persistence, MissingFileThrows) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv", eval.space()),
               Error);
}

}  // namespace
}  // namespace portatune::tuner
