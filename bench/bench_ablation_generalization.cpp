// Ablation A5 (paper Sec. VII future work): does the transfer generalize
//   (a) across *input sizes* — fit the surrogate on LU at n=2000 on the
//       source machine, tune LU at a different n on the target machine;
//   (b) across *multiple sources* — pool T_a from two machines before
//       fitting (a crude multi-machine prior).
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

using namespace portatune;

namespace {

tuner::SearchTrace reference_rs(kernels::SpaptProblemPtr prob,
                                const sim::MachineDescriptor& m,
                                const tuner::ExperimentSettings& s) {
  kernels::SimulatedKernelEvaluator eval(prob, m);
  return tuner::random_search(eval, s);
}

}  // namespace

int main() {
  const auto settings = bench::paper_settings();

  std::printf("Ablation A5a: input-size generalization (LU, Westmere "
              "n=2000 data -> Sandybridge at other sizes)\n\n");
  {
    const auto lu2000 = kernels::make_lu(2000);
    const auto source =
        reference_rs(lu2000, sim::make_westmere(), settings);
    ml::ForestParams fp = settings.forest;
    fp.seed = settings.seed;
    const auto model = tuner::fit_surrogate(source, lu2000->space(), fp);

    TextTable t({"target n", "Prf.Imp", "Srh.Imp", "successful"});
    for (const std::int64_t n : {500, 1000, 2000, 4000}) {
      const auto lu_n = kernels::make_lu(n);
      kernels::SimulatedKernelEvaluator rs_eval(lu_n,
                                                sim::make_sandybridge());
      const auto rs = tuner::random_search(rs_eval, settings);

      kernels::SimulatedKernelEvaluator target(lu_n,
                                               sim::make_sandybridge());
      const auto biased =
          tuner::biased_random_search(target, *model, settings);
      const auto s = tuner::compare_to_rs(rs, biased);
      t.add_row({std::to_string(n), TextTable::num(s.performance, 2),
                 TextTable::num(s.search, 2),
                 s.successful() ? "yes" : "no"});
    }
    t.print(std::cout);
  }

  std::printf("\nAblation A5b: pooled multi-source surrogate "
              "(LU -> Power7)\n\n");
  {
    const auto lu = kernels::make_lu();
    const auto wm = reference_rs(lu, sim::make_westmere(), settings);
    auto sb_settings = settings;
    sb_settings.seed = settings.seed + 1;  // independent draw on SB
    const auto sb = reference_rs(lu, sim::make_sandybridge(), sb_settings);

    kernels::SimulatedKernelEvaluator rs_eval(lu, sim::make_power7());
    const auto rs = tuner::random_search(rs_eval, settings);

    const auto run_with = [&](const ml::Dataset& data, const char* label,
                              TextTable& t) {
      ml::ForestParams fp = settings.forest;
      fp.seed = settings.seed;
      ml::RandomForest model(fp);
      model.fit(data);
      kernels::SimulatedKernelEvaluator target(lu, sim::make_power7());
      const auto biased =
          tuner::biased_random_search(target, model, settings);
      const auto s = tuner::compare_to_rs(rs, biased);
      t.add_row({label, std::to_string(data.num_rows()),
                 TextTable::num(s.performance, 2),
                 TextTable::num(s.search, 2)});
    };

    TextTable t({"source data", "rows", "Prf.Imp", "Srh.Imp"});
    const auto wm_data = wm.to_dataset(lu->space());
    const auto sb_data = sb.to_dataset(lu->space());
    ml::Dataset pooled = wm_data;
    for (std::size_t i = 0; i < sb_data.num_rows(); ++i)
      pooled.add_row(sb_data.row(i), sb_data.target(i));
    run_with(wm_data, "Westmere only", t);
    run_with(sb_data, "Sandybridge only", t);
    run_with(pooled, "pooled (both)", t);
    t.print(std::cout);
  }
  return 0;
}
