#include "orio/codegen.hpp"

#include <gtest/gtest.h>

#include "kernels/spapt.hpp"
#include "orio/annotation.hpp"
#include "orio/compiled.hpp"
#include "support/error.hpp"

namespace portatune::orio {
namespace {

kernels::SpaptProblemPtr mm(std::int64_t n) {
  return parse_annotation(example_mm_annotation(n));
}

std::size_t count(const std::string& haystack, const std::string& needle) {
  std::size_t hits = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++hits;
    pos += needle.size();
  }
  return hits;
}

TEST(Codegen, IdentityEmitsPlainTripleLoop) {
  const auto prob = mm(64);
  const auto t = prob->transforms(prob->space().default_config(), 1);
  const auto code = generate_c(prob->phases()[0].nest, t[0], "mm");
  EXPECT_NE(code.find("void mm(double (* restrict C)[64]"),
            std::string::npos);
  EXPECT_EQ(count(code, "for ("), 3u);
  EXPECT_EQ(count(code, "C[i][j] = C[i][j] + A[i][k] * B[k][j];"), 1u);
}

TEST(Codegen, UnrollReplicatesBodyAndEmitsRemainder) {
  const auto prob = mm(64);
  auto c = prob->space().default_config();
  c[prob->space().index_of("U_K")] = 3;  // unroll 4
  const auto t = prob->transforms(c, 1);
  const auto code = generate_c(prob->phases()[0].nest, t[0], "mm");
  // 4 unrolled instances + 1 remainder instance.
  EXPECT_EQ(count(code, "C[i][j] = C[i][j] + A[i]"), 5u);
  EXPECT_NE(code.find("(k+3)"), std::string::npos);
  EXPECT_NE(code.find("k += 4"), std::string::npos);
}

TEST(Codegen, TilingEmitsTileLoopWithGuard) {
  const auto prob = mm(64);
  auto c = prob->space().default_config();
  c[prob->space().index_of("T_J")] = 4;  // tile 16
  const auto t = prob->transforms(c, 1);
  const auto code = generate_c(prob->phases()[0].nest, t[0], "mm");
  EXPECT_NE(code.find("for (long j_t = 0; j_t < 64; j_t += 16)"),
            std::string::npos);
  EXPECT_NE(code.find("j_hi"), std::string::npos);
}

TEST(Codegen, RegisterTilingJamsTheBody) {
  const auto prob = mm(64);
  auto c = prob->space().default_config();
  c[prob->space().index_of("RT_I")] = 1;  // reg tile 2
  c[prob->space().index_of("RT_J")] = 1;  // reg tile 2
  const auto t = prob->transforms(c, 1);
  const auto code = generate_c(prob->phases()[0].nest, t[0], "mm");
  // Jammed 2x2 block: main body has 4 instances; each of the two
  // remainder paths replays fewer.
  EXPECT_NE(code.find("(i+1)"), std::string::npos);
  EXPECT_NE(code.find("(j+1)"), std::string::npos);
  EXPECT_GE(count(code, "C["), 4u);
}

TEST(Codegen, SubstitutionRespectsTokenBoundaries) {
  const auto prob = parse_annotation(
      "kernel K\n"
      "array ii[16]\n"   // array name contains the loop var name
      "loop i 16\n"
      "stmt \"ii[i] = ii[i] + 1;\" flops 1 reads ii[i] writes ii[i]\n"
      "param U unroll i 1..4\n");
  auto c = prob->space().default_config();
  c[0] = 1;  // unroll 2
  const auto t = prob->transforms(c, 1);
  const auto code = generate_c(prob->phases()[0].nest, t[0], "k");
  // The array name "ii" must not be rewritten by the i -> (i+1) subst.
  EXPECT_NE(code.find("ii[(i+1)] = ii[(i+1)] + 1;"), std::string::npos);
  EXPECT_EQ(code.find("(i+1)i"), std::string::npos);
}

TEST(Codegen, MissingStatementTextThrows) {
  sim::LoopNest nest;
  nest.name = "n";
  nest.loops = {{"i", 4, 1.0}};
  nest.arrays = {{"A", {4}, 8}};
  sim::Statement s;
  s.depth = 1;
  s.refs = {{0, {sim::idx(0)}, true}};
  nest.stmts = {s};  // no text
  EXPECT_THROW(
      generate_c(nest, sim::NestTransform::identity(1), "f"),
      Error);
}

TEST(Codegen, PaperKernelsGenerateEveryStatement) {
  // The four Table III kernels carry a C template on every statement, so
  // each phase code-generates and its output contains each statement.
  for (const auto& prob : kernels::table3_problems()) {
    const auto t = prob->transforms(prob->space().default_config(), 1);
    ASSERT_EQ(t.size(), prob->phases().size());
    for (std::size_t p = 0; p < t.size(); ++p) {
      const sim::LoopNest& nest = prob->phases()[p].nest;
      const std::string code = generate_c(nest, t[p], "kernel");
      for (const sim::Statement& s : nest.stmts) {
        ASSERT_FALSE(s.text.empty()) << nest.name;
        EXPECT_NE(code.find(s.text), std::string::npos)
            << nest.name << ": " << s.text;
      }
    }
  }
}

TEST(Codegen, BenchmarkProgramIsSelfContained) {
  const auto prob = mm(32);
  const auto t = prob->transforms(prob->space().default_config(), 1);
  const auto program =
      generate_benchmark_program(prob->phases()[0].nest, t[0], 2);
  EXPECT_NE(program.find("#include <stdio.h>"), std::string::npos);
  EXPECT_NE(program.find("int main(void)"), std::string::npos);
  EXPECT_NE(program.find("malloc"), std::string::npos);
  EXPECT_NE(program.find("checksum"), std::string::npos);
}

TEST(CompileAndRun, TransformedVariantsCompileAndRun) {
  // End-to-end check of the generated code through the host compiler: a
  // heavily transformed variant (ragged unroll + tile + unroll-and-jam)
  // must compile cleanly and report a positive run time, like the
  // untransformed default. (Numerical equivalence of the transformed
  // loop structures is covered by the native-kernel tests.)
  const auto prob = mm(48);
  const auto& nest = prob->phases()[0].nest;
  const auto def_t = prob->transforms(prob->space().default_config(), 1)[0];
  auto c = prob->space().default_config();
  c[prob->space().index_of("U_K")] = 4;   // unroll 5 (ragged)
  c[prob->space().index_of("T_I")] = 4;   // tile 16
  c[prob->space().index_of("RT_J")] = 1;  // reg tile 2
  const auto tuned_t = prob->transforms(c, 1)[0];

  CompileOptions opt;
  opt.reps = 1;
  double t_def = 0, t_tuned = 0;
  try {
    t_def = compile_and_run_variant(nest, def_t, opt);
    t_tuned = compile_and_run_variant(nest, tuned_t, opt);
  } catch (const Error& e) {
    GTEST_SKIP() << "host compiler unavailable: " << e.what();
  }
  EXPECT_GT(t_def, 0.0);
  EXPECT_GT(t_tuned, 0.0);
}

}  // namespace
}  // namespace portatune::orio
