// Fuzz-style persistence hardening tests: every loader must reject a
// truncated or bit-flipped file with a portatune::Error (the v3 checksum
// footer, see persistence.hpp), never crash, and never silently return a
// partial trace a resumed search would then diverge from. Legacy v1/v2
// files carry no footer and are rejected outright.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/persistence.hpp"
#include "tuner/random_search.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

std::string sample_trace_bytes(QuadraticEvaluator& eval, std::size_t n) {
  RandomSearchOptions opt;
  opt.max_evals = n;
  opt.seed = 13;
  const auto trace = random_search(eval, opt);
  std::ostringstream os;
  save_trace_csv(os, trace, eval.space());
  return os.str();
}

std::string sample_checkpoint_bytes(QuadraticEvaluator& eval,
                                    std::size_t n) {
  RandomSearchOptions opt;
  opt.max_evals = n;
  opt.seed = 13;
  SearchCheckpoint snapshot;
  snapshot.trace = random_search(eval, opt);
  snapshot.draws = snapshot.trace.size() + 3;
  snapshot.quarantine = {0xdeadbeefULL, 0x1234ULL};
  std::ostringstream os;
  save_checkpoint_csv(os, snapshot, eval.space());
  return os.str();
}

TEST(Corruption, TraceRejectsEveryTruncation) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const std::string bytes = sample_trace_bytes(eval, 12);
  // Every proper prefix except "footer minus its trailing newline" must
  // throw: the checksum line is last, so truncation either removes it
  // (footer missing) or tears it (footer malformed).
  for (std::size_t len = 0; len + 2 <= bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    EXPECT_THROW(load_trace_csv(in, eval.space()), Error)
        << "prefix of " << len << " bytes parsed as a valid trace";
  }
}

TEST(Corruption, TraceToleratesOnlyAMissingFinalNewline) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const std::string bytes = sample_trace_bytes(eval, 12);
  std::istringstream in(bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(load_trace_csv(in, eval.space()).size(), 12u);
}

TEST(Corruption, TraceRejectsEverySingleByteFlip) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const std::string bytes = sample_trace_bytes(eval, 12);
  // Flips inside the payload trip the checksum; flips inside the footer
  // itself make the footer malformed or mismatched; flips in the magic
  // line either break the magic or downgrade the version, leaving a
  // stray "# checksum" row the legacy parsers reject. All must throw.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] ^= 0x01;
    std::istringstream in(mutated);
    EXPECT_THROW(load_trace_csv(in, eval.space()), Error)
        << "flip at byte " << pos << " parsed as a valid trace";
  }
}

TEST(Corruption, CheckpointRejectsEveryTruncation) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const std::string bytes = sample_checkpoint_bytes(eval, 10);
  for (std::size_t len = 0; len + 2 <= bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    EXPECT_THROW(load_checkpoint_csv(in, eval.space()), Error)
        << "prefix of " << len << " bytes parsed as a valid checkpoint";
  }
}

TEST(Corruption, CheckpointRejectsEverySingleByteFlip) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const std::string bytes = sample_checkpoint_bytes(eval, 10);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] ^= 0x01;
    std::istringstream in(mutated);
    EXPECT_THROW(load_checkpoint_csv(in, eval.space()), Error)
        << "flip at byte " << pos << " parsed as a valid checkpoint";
  }
}

TEST(Corruption, CheckpointRoundTripsThroughTheChecksum) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const std::string bytes = sample_checkpoint_bytes(eval, 10);
  std::istringstream in(bytes);
  const auto snapshot = load_checkpoint_csv(in, eval.space());
  EXPECT_EQ(snapshot.trace.size(), 10u);
  EXPECT_EQ(snapshot.draws, 13u);
  EXPECT_EQ(snapshot.quarantine.size(), 2u);
}

TEST(Corruption, LegacyV1AndV2FilesAreRejected) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  const auto expect_bad_magic = [&](const std::string& bytes,
                                    bool checkpoint) {
    std::istringstream in(bytes);
    try {
      if (checkpoint)
        load_checkpoint_csv(in, eval.space());
      else
        load_trace_csv(in, eval.space());
      FAIL() << "legacy file loaded: " << bytes;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic line"),
                std::string::npos)
          << e.what();
    }
  };
  expect_bad_magic(
      "# portatune-trace v1,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index\n"
      "1,2,3,4,1.5,0\n",
      false);
  expect_bad_magic(
      "# portatune-trace v2,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "1,2,3,4,1.5,0,1700000000.25\n",
      false);
  expect_bad_magic(
      "# portatune-checkpoint v2,RS,quadratic,M\n"
      "# draws,5\n"
      "p0,p1,p2,p3,seconds,elapsed,draw_index,wall_unix\n"
      "1,2,3,4,1.5,0.5,0,1700000000\n",
      true);
}

TEST(Corruption, ForgedFooterIsRejected) {
  // A correct-looking footer over doctored rows: the hash must win.
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  std::string bytes = sample_trace_bytes(eval, 8);
  const auto footer = bytes.rfind("# checksum,");
  ASSERT_NE(footer, std::string::npos);
  // Duplicate the first data row region by swapping two digits far from
  // the footer, keeping the original (now stale) checksum.
  const auto row = bytes.find('\n', bytes.find('\n') + 1) + 1;
  ASSERT_LT(row, footer);
  std::swap(bytes[row], bytes[row + 2]);
  if (bytes[row] == bytes[row + 2]) bytes[row] ^= 0x02;
  std::istringstream in(bytes);
  EXPECT_THROW(load_trace_csv(in, eval.space()), Error);
}

TEST(Corruption, ChecksumDiagnosticsNameTheFailure) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const std::string bytes = sample_trace_bytes(eval, 6);
  const auto footer = bytes.rfind("# checksum,");

  try {  // footer cut off entirely
    std::istringstream in(bytes.substr(0, footer));
    load_trace_csv(in, eval.space());
    FAIL() << "truncated trace loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum footer is missing"),
              std::string::npos)
        << e.what();
  }

  try {  // footer torn mid-digits
    std::istringstream in(bytes.substr(0, footer + 15));
    load_trace_csv(in, eval.space());
    FAIL() << "torn-footer trace loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("footer is malformed"),
              std::string::npos)
        << e.what();
  }

  try {  // payload corrupted under an intact footer
    std::string mutated = bytes;
    mutated[footer - 3] ^= 0x04;
    std::istringstream in(mutated);
    load_trace_csv(in, eval.space());
    FAIL() << "corrupted trace loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace portatune::tuner
