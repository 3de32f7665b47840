#include "kernels/spapt.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace portatune::kernels {

using sim::ArrayDecl;
using sim::ArrayRef;
using sim::IndexExpr;
using sim::Loop;
using sim::LoopNest;
using sim::NestTransform;
using sim::Statement;
using sim::idx;
using tuner::ParamConfig;
using tuner::ParamSpace;
using tuner::flag_values;
using tuner::pow2_values;
using tuner::range_values;

SpaptProblem::SpaptProblem(std::string name, ParamSpace space,
                           std::vector<PhaseSpec> phases, int scr_param,
                           int vec_param, int pad_param)
    : name_(std::move(name)),
      space_(std::move(space)),
      phases_(std::move(phases)),
      scr_param_(scr_param),
      vec_param_(vec_param),
      pad_param_(pad_param) {
  for (const auto& p : phases_)
    PT_REQUIRE(p.bindings.size() == p.nest.loops.size(),
               "binding arity mismatch in " + name_);
}

std::vector<NestTransform> SpaptProblem::transforms(const ParamConfig& c,
                                                    int threads) const {
  space_.validate(c);
  const auto pick = [&](int param) -> std::int64_t {
    return static_cast<std::int64_t>(
        space_.param(static_cast<std::size_t>(param))
            .values[static_cast<std::size_t>(c[static_cast<std::size_t>(
                param)])]);
  };

  std::vector<NestTransform> out;
  out.reserve(phases_.size());
  for (const auto& phase : phases_) {
    NestTransform t = NestTransform::identity(phase.nest.loops.size());
    t.threads = threads;
    if (scr_param_ >= 0) t.scalar_replacement = pick(scr_param_) != 0;
    if (vec_param_ >= 0) t.vector_pragma = pick(vec_param_) != 0;
    if (pad_param_ >= 0) t.array_padding = pick(pad_param_) != 0;

    for (std::size_t l = 0; l < phase.bindings.size(); ++l) {
      const auto& b = phase.bindings[l];
      auto& lt = t.loops[l];
      const std::int64_t extent = phase.nest.loops[l].extent;
      if (b.unroll_param >= 0)
        lt.unroll = static_cast<int>(
            std::min<std::int64_t>(pick(b.unroll_param), extent));
      if (b.tile_param >= 0) {
        std::int64_t tile = pick(b.tile_param);
        // A tile covering the whole loop is no tiling at all.
        if (tile >= extent || tile <= 1) tile = 0;
        lt.cache_tile = tile;
      }
      if (b.regtile_param >= 0) {
        const std::int64_t rt =
            std::min<std::int64_t>(pick(b.regtile_param), extent);
        // Infeasible variant: unroll-and-jam block wider than the cache
        // tile cannot be generated (Orio rejects it).
        PT_REQUIRE(lt.cache_tile == 0 || rt <= lt.cache_tile,
                   name_ + ": register tile exceeds cache tile");
        lt.reg_tile = static_cast<int>(rt);
      }
    }
    phase.nest.validate(t);
    out.push_back(std::move(t));
  }
  return out;
}

bool SpaptProblem::feasible(const ParamConfig& c) const {
  try {
    (void)transforms(c, 1);
    return true;
  } catch (const Error&) {
    return false;
  }
}

double SpaptProblem::total_flops() const {
  double f = 0.0;
  for (const auto& p : phases_) f += p.nest.total_flops();
  return f;
}

namespace {

/// Adds the (U, T, RT) triple for one loop; returns the binding.
LoopBinding add_loop_params(ParamSpace& space, const std::string& loop) {
  LoopBinding b;
  b.unroll_param = static_cast<int>(space.add("U_" + loop,
                                              range_values(1, 32)));
  b.tile_param = static_cast<int>(space.add("T_" + loop,
                                            pow2_values(0, 11)));
  b.regtile_param = static_cast<int>(space.add("RT_" + loop,
                                               pow2_values(0, 5)));
  return b;
}

}  // namespace

SpaptProblemPtr make_mm(std::int64_t n) {
  // for i, j, k: C[i][j] += A[i][k] * B[k][j]
  LoopNest nest;
  nest.name = "MM";
  nest.loops = {{"i", n, 1.0}, {"j", n, 1.0}, {"k", n, 1.0}};
  nest.arrays = {{"C", {n, n}, 8}, {"A", {n, n}, 8}, {"B", {n, n}, 8}};
  Statement s;
  s.depth = 3;
  s.flops = 2.0;
  s.refs = {
      {0, {idx(0), idx(1)}, false},  // C[i][j] read
      {0, {idx(0), idx(1)}, true},   // C[i][j] write
      {1, {idx(0), idx(2)}, false},  // A[i][k]
      {2, {idx(2), idx(1)}, false},  // B[k][j]
  };
  s.text = "C[i][j] = C[i][j] + A[i][k] * B[k][j];";
  nest.stmts = {s};
  nest.compiler_tilable = true;
  nest.outer_parallel = true;

  ParamSpace space;
  PhaseSpec phase;
  phase.nest = std::move(nest);
  phase.bindings = {add_loop_params(space, "I"), add_loop_params(space, "J"),
                    add_loop_params(space, "K")};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  const int vec = static_cast<int>(space.add("VEC", flag_values()));
  const int pad = static_cast<int>(space.add("PAD", flag_values()));
  return std::make_shared<SpaptProblem>(
      "MM", std::move(space), std::vector<PhaseSpec>{std::move(phase)}, scr,
      vec, pad);
}

SpaptProblemPtr make_atax(std::int64_t n) {
  // Phase 1: tmp[i] = sum_j A[i][j] * x[j]
  LoopNest p1;
  p1.name = "ATAX.Ax";
  p1.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p1.arrays = {{"A", {n, n}, 8}, {"x", {n}, 8}, {"tmp", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 2.0;
    s.refs = {
        {0, {idx(0), idx(1)}, false},  // A[i][j]
        {1, {idx(1)}, false},          // x[j]
        {2, {idx(0)}, true},           // tmp[i] (accumulator)
    };
    s.text = "tmp[i] = tmp[i] + A[i][j] * x[j];";
    p1.stmts = {s};
  }
  p1.compiler_tilable = true;
  p1.outer_parallel = true;

  // Phase 2: y[j] += A[i][j] * tmp[i]
  LoopNest p2;
  p2.name = "ATAX.ATy";
  p2.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p2.arrays = {{"A", {n, n}, 8}, {"tmp", {n}, 8}, {"y", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 2.0;
    s.refs = {
        {0, {idx(0), idx(1)}, false},  // A[i][j]
        {1, {idx(0)}, false},          // tmp[i]
        {2, {idx(1)}, false},          // y[j] read
        {2, {idx(1)}, true},           // y[j] write
    };
    s.text = "y[j] = y[j] + A[i][j] * tmp[i];";
    p2.stmts = {s};
  }
  p2.compiler_tilable = true;
  p2.outer_parallel = false;  // j-reduction across i carries a dependence

  ParamSpace space;
  PhaseSpec ph1, ph2;
  ph1.nest = std::move(p1);
  ph1.bindings = {add_loop_params(space, "1I"), add_loop_params(space, "1J")};
  ph2.nest = std::move(p2);
  ph2.bindings = {add_loop_params(space, "2I"), add_loop_params(space, "2J")};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  return std::make_shared<SpaptProblem>(
      "ATAX", std::move(space),
      std::vector<PhaseSpec>{std::move(ph1), std::move(ph2)}, scr, -1, -1);
}

SpaptProblemPtr make_cor(std::int64_t n) {
  // Phase 1: column standardization, data[i][j] = (data[i][j]-mean)/std.
  LoopNest p1;
  p1.name = "COR.norm";
  p1.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p1.arrays = {{"data", {n, n}, 8}, {"mean", {n}, 8}, {"stddev", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 3.0;
    s.refs = {
        {0, {idx(0), idx(1)}, false},
        {0, {idx(0), idx(1)}, true},
        {1, {idx(1)}, false},
        {2, {idx(1)}, false},
    };
    s.text = "data[i][j] = (data[i][j] - mean[j]) / stddev[j];";
    p1.stmts = {s};
  }
  p1.compiler_tilable = true;
  p1.outer_parallel = true;

  // Phase 2: symmat[j1][j2] = sum_i data[i][j1]*data[i][j2], j2 >= j1.
  LoopNest p2;
  p2.name = "COR.sym";
  p2.loops = {{"j1", n, 1.0}, {"j2", n, 0.5}, {"i", n, 1.0}};
  p2.arrays = {{"symmat", {n, n}, 8}, {"data", {n, n}, 8}};
  {
    Statement s;
    s.depth = 3;
    s.flops = 2.0;
    s.refs = {
        {0, {idx(0), idx(1)}, false},  // symmat[j1][j2] read
        {0, {idx(0), idx(1)}, true},   // symmat[j1][j2] write
        {1, {idx(2), idx(0)}, false},  // data[i][j1]
        {1, {idx(2), idx(1)}, false},  // data[i][j2]
    };
    s.text = "symmat[j1][j2] = symmat[j1][j2] + data[i][j1] * data[i][j2];";
    p2.stmts = {s};
  }
  p2.compiler_tilable = false;  // triangular bounds defeat auto-tiling
  p2.outer_parallel = true;

  ParamSpace space;
  PhaseSpec ph2;
  ph2.nest = std::move(p2);
  ph2.bindings = {add_loop_params(space, "J1"), add_loop_params(space, "J2"),
                  add_loop_params(space, "I")};
  PhaseSpec ph1;
  ph1.nest = std::move(p1);
  LoopBinding norm_i;
  norm_i.unroll_param =
      static_cast<int>(space.add("U_N", range_values(1, 32)));
  ph1.bindings = {norm_i, LoopBinding{}};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  const int vec = static_cast<int>(space.add("VEC", flag_values()));
  // Phase order: normalization runs first.
  return std::make_shared<SpaptProblem>(
      "COR", std::move(space),
      std::vector<PhaseSpec>{std::move(ph1), std::move(ph2)}, scr, vec, -1);
}

SpaptProblemPtr make_lu(std::int64_t n) {
  // for k: for i>k: A[i][k] /= A[k][k]
  //        for i>k, j>k: A[i][j] -= A[i][k] * A[k][j]
  LoopNest nest;
  nest.name = "LU";
  nest.loops = {{"k", n, 1.0}, {"i", n, 0.5}, {"j", n, 0.5}};
  nest.arrays = {{"A", {n, n}, 8}};
  Statement div;
  div.depth = 2;
  div.flops = 1.0;
  div.refs = {
      {0, {idx(1), idx(0)}, false},  // A[i][k] read
      {0, {idx(1), idx(0)}, true},   // A[i][k] write
      {0, {idx(0), idx(0)}, false},  // A[k][k]
  };
  div.text = "A[i][k] = A[i][k] / A[k][k];";
  Statement upd;
  upd.depth = 3;
  upd.flops = 2.0;
  upd.refs = {
      {0, {idx(1), idx(2)}, false},  // A[i][j] read
      {0, {idx(1), idx(2)}, true},   // A[i][j] write
      {0, {idx(1), idx(0)}, false},  // A[i][k]
      {0, {idx(0), idx(2)}, false},  // A[k][j]
  };
  upd.text = "A[i][j] = A[i][j] - A[i][k] * A[k][j];";
  nest.stmts = {div, upd};
  nest.compiler_tilable = false;  // triangular, loop-carried on k
  nest.outer_parallel = false;    // k is inherently sequential
  ParamSpace space;
  PhaseSpec phase;
  phase.nest = std::move(nest);
  phase.bindings = {add_loop_params(space, "K"), add_loop_params(space, "I"),
                    add_loop_params(space, "J")};
  return std::make_shared<SpaptProblem>(
      "LU", std::move(space), std::vector<PhaseSpec>{std::move(phase)}, -1,
      -1, -1);
}

std::vector<SpaptProblemPtr> table3_problems() {
  return {make_mm(), make_atax(), make_cor(), make_lu()};
}

SpaptProblemPtr make_bicg(std::int64_t n) {
  // Phase 1: q[i] = sum_j A[i][j] * p[j]
  LoopNest p1;
  p1.name = "BICG.q";
  p1.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p1.arrays = {{"A", {n, n}, 8}, {"p", {n}, 8}, {"q", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 2.0;
    s.text = "q[i] = q[i] + A[i][j] * p[j];";
    s.refs = {{0, {idx(0), idx(1)}, false},
              {1, {idx(1)}, false},
              {2, {idx(0)}, true}};
    p1.stmts = {s};
  }
  p1.compiler_tilable = true;
  p1.outer_parallel = true;

  // Phase 2: s[j] += A[i][j] * r[i] (the transposed product).
  LoopNest p2;
  p2.name = "BICG.s";
  p2.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p2.arrays = {{"A", {n, n}, 8}, {"r", {n}, 8}, {"s", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 2.0;
    s.text = "s[j] = s[j] + A[i][j] * r[i];";
    s.refs = {{0, {idx(0), idx(1)}, false},
              {1, {idx(0)}, false},
              {2, {idx(1)}, false},
              {2, {idx(1)}, true}};
    p2.stmts = {s};
  }
  p2.compiler_tilable = true;
  p2.outer_parallel = false;  // reduction across i

  ParamSpace space;
  PhaseSpec ph1, ph2;
  ph1.nest = std::move(p1);
  ph1.bindings = {add_loop_params(space, "1I"), add_loop_params(space, "1J")};
  ph2.nest = std::move(p2);
  ph2.bindings = {add_loop_params(space, "2I"), add_loop_params(space, "2J")};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  return std::make_shared<SpaptProblem>(
      "BICG", std::move(space),
      std::vector<PhaseSpec>{std::move(ph1), std::move(ph2)}, scr, -1, -1);
}

SpaptProblemPtr make_gesummv(std::int64_t n) {
  // y[i] = alpha * sum_j A[i][j] x[j] + beta * sum_j B[i][j] x[j],
  // fused into one two-matrix sweep.
  LoopNest nest;
  nest.name = "GESUMMV";
  nest.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  nest.arrays = {{"A", {n, n}, 8},
                 {"B", {n, n}, 8},
                 {"x", {n}, 8},
                 {"y", {n}, 8}};
  Statement s;
  s.depth = 2;
  s.flops = 4.0;
  s.text = "y[i] = y[i] + A[i][j] * x[j] + B[i][j] * x[j];";
  s.refs = {{0, {idx(0), idx(1)}, false},
            {1, {idx(0), idx(1)}, false},
            {2, {idx(1)}, false},
            {3, {idx(0)}, true}};
  nest.stmts = {s};
  nest.compiler_tilable = true;
  nest.outer_parallel = true;

  ParamSpace space;
  PhaseSpec phase;
  phase.nest = std::move(nest);
  phase.bindings = {add_loop_params(space, "I"), add_loop_params(space, "J")};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  const int vec = static_cast<int>(space.add("VEC", flag_values()));
  return std::make_shared<SpaptProblem>(
      "GESUMMV", std::move(space),
      std::vector<PhaseSpec>{std::move(phase)}, scr, vec, -1);
}

SpaptProblemPtr make_gemver(std::int64_t n) {
  // Phase 1: B = A + u1 v1^T + u2 v2^T (rank-2 update).
  LoopNest p1;
  p1.name = "GEMVER.rank2";
  p1.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p1.arrays = {{"B", {n, n}, 8}, {"A", {n, n}, 8}, {"u1", {n}, 8},
               {"v1", {n}, 8},  {"u2", {n}, 8},   {"v2", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 4.0;
    s.text = "B[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];";
    s.refs = {{0, {idx(0), idx(1)}, true},  {1, {idx(0), idx(1)}, false},
              {2, {idx(0)}, false},         {3, {idx(1)}, false},
              {4, {idx(0)}, false},         {5, {idx(1)}, false}};
    p1.stmts = {s};
  }
  p1.compiler_tilable = true;
  p1.outer_parallel = true;

  // Phase 2: x[j] += beta * B[i][j] * y[i] (transposed matvec).
  LoopNest p2;
  p2.name = "GEMVER.xt";
  p2.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p2.arrays = {{"B", {n, n}, 8}, {"x", {n}, 8}, {"y", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 3.0;
    s.text = "x[j] = x[j] + 1.2 * B[i][j] * y[i];";
    s.refs = {{0, {idx(0), idx(1)}, false},
              {1, {idx(1)}, false},
              {1, {idx(1)}, true},
              {2, {idx(0)}, false}};
    p2.stmts = {s};
  }
  p2.compiler_tilable = true;
  p2.outer_parallel = false;

  // Phase 3: w[i] += alpha * B[i][j] * x[j].
  LoopNest p3;
  p3.name = "GEMVER.w";
  p3.loops = {{"i", n, 1.0}, {"j", n, 1.0}};
  p3.arrays = {{"B", {n, n}, 8}, {"w", {n}, 8}, {"x", {n}, 8}};
  {
    Statement s;
    s.depth = 2;
    s.flops = 3.0;
    s.text = "w[i] = w[i] + 1.5 * B[i][j] * x[j];";
    s.refs = {{0, {idx(0), idx(1)}, false},
              {1, {idx(0)}, true},
              {2, {idx(1)}, false}};
    p3.stmts = {s};
  }
  p3.compiler_tilable = true;
  p3.outer_parallel = true;

  ParamSpace space;
  PhaseSpec ph1, ph2, ph3;
  ph1.nest = std::move(p1);
  ph1.bindings = {add_loop_params(space, "1I"), add_loop_params(space, "1J")};
  ph2.nest = std::move(p2);
  // The second phase shares the rank-2 phase's j parameters for its own j
  // loop (as the SPAPT instance does) and adds unroll-only control of i.
  LoopBinding ph2_i;
  ph2_i.unroll_param =
      static_cast<int>(space.add("U_2I", range_values(1, 32)));
  ph2.bindings = {ph2_i, add_loop_params(space, "2J")};
  ph3.nest = std::move(p3);
  ph3.bindings = {add_loop_params(space, "3I"), LoopBinding{}};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  const int vec = static_cast<int>(space.add("VEC", flag_values()));
  return std::make_shared<SpaptProblem>(
      "GEMVER", std::move(space),
      std::vector<PhaseSpec>{std::move(ph1), std::move(ph2),
                             std::move(ph3)},
      scr, vec, -1);
}

SpaptProblemPtr make_jacobi2d(std::int64_t n, std::int64_t steps) {
  // for t, i, j: a[i][j] = 0.2 * (b[i][j] + b[i-1][j] + b[i+1][j]
  //                              + b[i][j-1] + b[i][j+1])
  // The time loop is sequential and untiled; i/j carry the tuning knobs.
  LoopNest nest;
  nest.name = "JACOBI2D";
  nest.loops = {{"t", steps, 1.0}, {"i", n, 1.0}, {"j", n, 1.0}};
  nest.arrays = {{"a", {n, n}, 8}, {"b", {n, n}, 8}};
  Statement s;
  s.depth = 3;
  s.flops = 5.0;
  s.text = "a[i][j] = 0.2 * (b[i][j] + b[i][j-1] + b[i][j+1] + "
           "b[i-1][j] + b[i+1][j]);";
  s.refs = {{0, {idx(1), idx(2)}, true},
            {1, {idx(1), idx(2)}, false},
            {1, {idx(1), {{{2, 1}}, -1}}, false},
            {1, {idx(1), {{{2, 1}}, +1}}, false},
            {1, {{{{1, 1}}, -1}, idx(2)}, false},
            {1, {{{{1, 1}}, +1}, idx(2)}, false}};
  nest.stmts = {s};
  nest.compiler_tilable = false;  // time-loop dependence
  nest.outer_parallel = false;

  ParamSpace space;
  PhaseSpec phase;
  phase.nest = std::move(nest);
  phase.bindings = {LoopBinding{}, add_loop_params(space, "I"),
                    add_loop_params(space, "J")};
  const int scr = static_cast<int>(space.add("SCR", flag_values()));
  const int pad = static_cast<int>(space.add("PAD", flag_values()));
  return std::make_shared<SpaptProblem>(
      "JACOBI2D", std::move(space),
      std::vector<PhaseSpec>{std::move(phase)}, scr, -1, pad);
}

std::vector<SpaptProblemPtr> extended_problems() {
  return {make_bicg(), make_gesummv(), make_gemver(), make_jacobi2d()};
}

SpaptProblemPtr spapt_by_name(const std::string& name, std::int64_t n) {
  if (name == "MM") return make_mm(n > 0 ? n : 2000);
  if (name == "ATAX") return make_atax(n > 0 ? n : 10000);
  if (name == "COR") return make_cor(n > 0 ? n : 2000);
  if (name == "LU") return make_lu(n > 0 ? n : 2000);
  if (name == "BICG") return make_bicg(n > 0 ? n : 10000);
  if (name == "GESUMMV") return make_gesummv(n > 0 ? n : 8000);
  if (name == "GEMVER") return make_gemver(n > 0 ? n : 8000);
  if (name == "JACOBI2D") return make_jacobi2d(n > 0 ? n : 4000);
  throw Error("unknown SPAPT problem: " + name);
}

}  // namespace portatune::kernels
