// Shared helpers for the reproduction benches: every bench binary prints
// the rows/series of one paper table or figure (see DESIGN.md's
// per-experiment index). Output is aligned text plus optional CSV blocks.
//
// Parallelism: every cell of a table/figure is an independent transfer
// experiment, so the matrix drivers accept a thread count (first CLI
// argument, default 1) and fan cells out via run_transfer_experiments.
// All searches are seed-deterministic, so the printed numbers are
// identical at any thread count — only the wall time changes.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/evaluator_factory.hpp"
#include "apps/registry.hpp"
#include "support/table.hpp"
#include "tuner/experiment.hpp"

namespace portatune::bench {

/// Thread counts used in the Xeon Phi experiments (Sec. V): 8 on the
/// Xeon hosts, 60 on the Phi; 1 elsewhere (serial Orio runs).
inline int paper_threads(const std::string& machine, bool phi_experiment) {
  if (!phi_experiment) return 1;
  return machine == "XeonPhi" ? 60 : 8;
}

/// Stack description for one paper evaluator; the benches add layers
/// (faults, observation, parallel fan-out) on top of this as needed.
inline apps::EvaluatorStackOptions paper_stack_options(
    const std::string& problem, const std::string& machine,
    bool phi_experiment = false, std::size_t eval_threads = 1) {
  apps::EvaluatorStackOptions o;
  o.problem = problem;
  o.machine = machine;
  o.compiler = phi_experiment ? sim::Compiler::Intel : sim::Compiler::Gnu;
  o.kernel_threads = paper_threads(machine, phi_experiment);
  o.eval_threads = eval_threads;
  return o;
}

inline tuner::EvaluatorPtr paper_evaluator(const std::string& problem,
                                           const std::string& machine,
                                           bool phi_experiment = false,
                                           std::size_t eval_threads = 1) {
  return apps::make_evaluator_stack(
      paper_stack_options(problem, machine, phi_experiment, eval_threads));
}

inline tuner::ExperimentSettings paper_settings() {
  return {};  // n_max=100, N=10000, delta=20%, CRN seed 20160401
}

/// One (problem, source, target) cell as a deferred job for
/// run_transfer_experiments: evaluators are built lazily on the worker
/// that runs the cell.
inline tuner::ExperimentJob cell_job(const std::string& problem,
                                     const std::string& source,
                                     const std::string& target,
                                     bool phi_experiment = false,
                                     std::size_t eval_threads = 1) {
  tuner::ExperimentJob job;
  job.label = problem + " " + source + "->" + target;
  job.settings = paper_settings();
  job.make_source = [=] {
    return paper_evaluator(problem, source, phi_experiment, eval_threads);
  };
  job.make_target = [=] {
    return paper_evaluator(problem, target, phi_experiment, eval_threads);
  };
  return job;
}

/// Run the full Sec. IV-D protocol for one (problem, source, target) cell.
inline tuner::TransferExperimentResult run_cell(const std::string& problem,
                                                const std::string& source,
                                                const std::string& target,
                                                bool phi_experiment = false,
                                                std::size_t eval_threads = 1) {
  auto a = paper_evaluator(problem, source, phi_experiment, eval_threads);
  auto b = paper_evaluator(problem, target, phi_experiment, eval_threads);
  return tuner::run_transfer_experiment(*a, *b, paper_settings());
}

/// Worker threads for a bench binary: first CLI argument, "0" meaning all
/// hardware threads; default 1 (the serial paper protocol).
inline std::size_t bench_threads(int argc, char** argv) {
  return argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1])) : 1;
}

/// Print a best-so-far curve as "(elapsed, best)" improvement points.
inline void print_curve(const char* label, const tuner::SearchTrace& trace) {
  std::printf("  %-6s", label);
  double last = -1.0;
  int shown = 0;
  for (const auto& [elapsed, best] : trace.best_curve()) {
    if (best == last) continue;
    std::printf(" (%.1fs, %.3fs)", elapsed, best);
    last = best;
    if (++shown >= 8) break;  // keep lines readable
  }
  std::printf("  [final best %.3fs at %.1fs]\n", trace.best_seconds(),
              trace.time_to_best());
}

/// One timing for write_bench_json.
struct BenchRecord {
  std::string name;
  double real_time = 0.0;
  std::string time_unit = "s";
};

/// Write timings in google-benchmark's --benchmark_out JSON shape, so
/// `portatune_report --compare-bench` gates every driver the same way
/// whether the numbers came from google-benchmark or a table driver.
inline void write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"context\":{},\"benchmarks\":[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"run_type\":\"iteration\","
                 "\"iterations\":1,\"real_time\":%.9g,\"cpu_time\":%.9g,"
                 "\"time_unit\":\"%s\"}%s\n",
                 r.name.c_str(), r.real_time, r.real_time,
                 r.time_unit.c_str(), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %zu benchmark records to %s\n", records.size(),
              path.c_str());
}

/// Speedup cell rendering matching the paper's Table IV typography:
/// "Prf.Imp Srh.Imp", bold-equivalent marker '*' for successful variants.
inline std::string speedup_cell(const tuner::Speedups& s) {
  std::string out = TextTable::num(s.performance, 2) + " / " +
                    TextTable::num(s.search, 2);
  if (s.successful()) out += " *";
  return out;
}

}  // namespace portatune::bench
