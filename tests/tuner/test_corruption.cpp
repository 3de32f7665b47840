// Fuzz-style persistence hardening tests. Every loader must reject a
// truncated or bit-flipped file with a portatune::Error (the checksum
// footer, see persistence.hpp), never crash, and never silently return a
// partial trace a resumed search would then diverge from. Files with any
// other magic line (v1/v2 checkpoints, trace-v3 files) are rejected
// outright. The footer authenticates nothing, so the mutation tests edit
// the payload under a valid footer: the checkpoint and journal parsers
// themselves must then return or throw portatune::Error.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/persistence.hpp"
#include "tuner/random_search.hpp"
#include "tuner/run_journal.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

std::string sample_checkpoint_bytes(QuadraticEvaluator& eval,
                                    std::size_t n) {
  SearchOptions opt;
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

TEST(Corruption, CheckpointRejectsEveryTruncation) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const std::string bytes = sample_checkpoint_bytes(eval, 10);
  // Every proper prefix except "footer minus its trailing newline" must
  // throw: the checksum line is last, so truncation either removes it
  // (footer missing) or tears it (footer malformed).
  for (std::size_t len = 0; len + 2 <= bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    EXPECT_THROW(load_checkpoint_csv(in, eval.space()), Error)
        << "prefix of " << len << " bytes parsed as a valid checkpoint";
  }
}

TEST(Corruption, CheckpointToleratesOnlyAMissingFinalNewline) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const std::string bytes = sample_checkpoint_bytes(eval, 12);
  std::istringstream in(bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(load_checkpoint_csv(in, eval.space()).trace.size(), 12u);
}

TEST(Corruption, CheckpointRejectsEverySingleByteFlip) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const std::string bytes = sample_checkpoint_bytes(eval, 10);
  // Flips inside the payload trip the checksum; flips inside the footer
  // itself make the footer malformed or mismatched; flips in the magic
  // line break the magic. All must throw.
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
  const auto expect_bad_magic = [&](const std::string& bytes) {
    std::istringstream in(bytes);
    try {
      load_checkpoint_csv(in, eval.space());
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
      "1,2,3,4,1.5,0\n");
  expect_bad_magic(
      "# portatune-trace v2,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "1,2,3,4,1.5,0,1700000000.25\n");
  // The trace-v3 format is gone too, valid footer and all.
  expect_bad_magic(append_checksum_footer(
      "# portatune-trace v3,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "1,2,3,4,1.5,0,1700000000.25\n"));
  expect_bad_magic(
      "# portatune-checkpoint v2,RS,quadratic,M\n"
      "# draws,5\n"
      "p0,p1,p2,p3,seconds,elapsed,draw_index,wall_unix\n"
      "1,2,3,4,1.5,0.5,0,1700000000\n");
}

TEST(Corruption, ForgedFooterIsRejected) {
  // A correct-looking footer over doctored rows: the hash must win.
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  std::string bytes = sample_checkpoint_bytes(eval, 8);
  const auto footer = bytes.rfind("# checksum,");
  ASSERT_NE(footer, std::string::npos);
  // Swap two digits of the first data row, far from the footer, keeping
  // the original (now stale) checksum.
  const auto row = bytes.find('\n', bytes.find("\np0,") + 1) + 1;
  ASSERT_LT(row, footer);
  std::swap(bytes[row], bytes[row + 2]);
  if (bytes[row] == bytes[row + 2]) bytes[row] ^= 0x02;
  std::istringstream in(bytes);
  EXPECT_THROW(load_checkpoint_csv(in, eval.space()), Error);
}

TEST(Corruption, ChecksumDiagnosticsNameTheFailure) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const std::string bytes = sample_checkpoint_bytes(eval, 6);
  const auto footer = bytes.rfind("# checksum,");

  try {  // footer cut off entirely
    std::istringstream in(bytes.substr(0, footer));
    load_checkpoint_csv(in, eval.space());
    FAIL() << "truncated checkpoint loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum footer is missing"),
              std::string::npos)
        << e.what();
  }

  try {  // footer torn mid-digits
    std::istringstream in(bytes.substr(0, footer + 15));
    load_checkpoint_csv(in, eval.space());
    FAIL() << "torn-footer checkpoint loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("footer is malformed"),
              std::string::npos)
        << e.what();
  }

  try {  // payload corrupted under an intact footer
    std::string mutated = bytes;
    mutated[footer - 3] ^= 0x04;
    std::istringstream in(mutated);
    load_checkpoint_csv(in, eval.space());
    FAIL() << "corrupted checkpoint loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

/// `payload` mutated every way the tests try, each under a valid footer
/// so the parser, not the checksum, has to catch the damage: every field
/// (the text between two of `,` `:` and newline) swapped in turn for each
/// hostile token, then `random` seeded edits of one to three bytes each.
std::vector<std::string> mutations(const std::string& payload,
                                   std::size_t random, std::uint64_t seed) {
  static const std::vector<std::string> tokens = {
      "",    "abc",  "-1",   "zzzzzzzzzzzzzzzz",     "18446744073709551615",
      "nan", "-inf", "1e999", "99999999999999999999", "0x1f",
      " 7",  "1.5.5", "#",    "a:b"};
  std::vector<std::string> out;
  for (std::size_t start = 0; start <= payload.size();) {
    const std::size_t end =
        std::min(payload.find_first_of(",:\n", start), payload.size());
    for (const std::string& token : tokens) {
      std::string m = payload;
      m.replace(start, end - start, token);
      out.push_back(append_checksum_footer(m));
    }
    start = end + 1;
  }
  std::mt19937_64 rng(seed);
  const std::string alphabet = "0123456789abcdefxz,.:-+e# \n";
  for (std::size_t i = 0; i < random; ++i) {
    std::string m = payload;
    for (std::size_t edits = 1 + rng() % 3; edits > 0 && !m.empty();
         --edits) {
      const std::size_t pos = rng() % m.size();
      const char c = alphabet[rng() % alphabet.size()];
      switch (rng() % 3) {
        case 0: m[pos] = c; break;
        case 1: m.erase(pos, 1); break;
        default: m.insert(pos, 1, c); break;
      }
    }
    out.push_back(append_checksum_footer(m));
  }
  return out;
}

/// Run `load` on one mutated input: it may return or throw
/// portatune::Error; any other exception fails the test, naming the input.
/// Returns whether it threw.
template <typename Load>
bool returns_or_throws_error(const Load& load, const std::string& input) {
  try {
    load();
    return false;
  } catch (const Error&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-Error exception '" << e.what() << "' on:\n"
                  << input;
    return true;
  }
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(Corruption, CheckpointMutationsReturnOrThrowError) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  eval.fail_when = [](const ParamConfig& c) { return c[1] <= 4; };
  SearchOptions opt;
  opt.max_evals = 6;
  opt.seed = 13;
  // Every metadata row present: stop, stats, quarantine and pending.
  opt.failure_budget.max_total = 1;
  SearchCheckpoint snapshot;
  snapshot.trace = random_search(eval, opt);
  snapshot.draws = snapshot.trace.size() + 4;
  snapshot.quarantine = {0xdeadbeefULL, 0x1234ULL};
  snapshot.pending = {{0x42ULL, snapshot.trace.size() + 1}};
  std::ostringstream os;
  save_checkpoint_csv(os, snapshot, eval.space());
  const std::string payload =
      strip_verified_checksum_footer(os.str(), "checkpoint");
  ASSERT_NE(payload.find("# stop,failure budget"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/mutated_checkpoint.csv";
  const auto inputs = mutations(payload, 2000, 20160401);
  std::size_t rejected = 0;
  for (const std::string& bytes : inputs) {
    std::istringstream in(bytes);
    rejected += returns_or_throws_error(
        [&] { load_checkpoint_csv(in, eval.space()); }, bytes);
    write_bytes(path, bytes);
    EXPECT_NO_THROW(summarize_checkpoint_csv(path)) << bytes;
  }
  // Most edits break the file; some (a digit for a digit) do not.
  EXPECT_GT(rejected, inputs.size() / 2);
  EXPECT_LT(rejected, inputs.size());
}

TEST(Corruption, JournalMutationsReturnOrThrowError) {
  const std::string dir = ::testing::TempDir() + "portatune_journal_mutation";
  std::filesystem::remove_all(dir);
  const std::vector<std::string> labels = {"LU W->SB", "LU W->XG", "a,b"};
  RunJournal::create(dir, labels).mark_done(1, 0x0123456789abcdefULL);
  const std::string manifest = dir + "/journal.csv";
  const std::string payload =
      strip_verified_checksum_footer(read_file(manifest), "journal");

  const auto inputs = mutations(payload, 300, 20160402);
  std::size_t rejected = 0;
  for (const std::string& bytes : inputs) {
    write_bytes(manifest, bytes);
    rejected += returns_or_throws_error([&] { RunJournal::peek(dir); }, bytes);
    // open() rewrites the manifest it accepts, so it goes last.
    returns_or_throws_error([&] { RunJournal::open(dir, labels); }, bytes);
  }
  EXPECT_GT(rejected, inputs.size() / 2);
  EXPECT_LT(rejected, inputs.size());
}

}  // namespace
}  // namespace portatune::tuner
