// Micro-benchmarks of the substrates (google-benchmark): surrogate fit
// and predict throughput, analytic cost-model evaluation rate, exact
// cache simulation rate, sampling and code generation throughput. These
// bound the "model overhead" that the paper argues is negligible next to
// empirical evaluations.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "apps/registry.hpp"
#include "bench/common.hpp"
#include "kernels/sim_evaluator.hpp"
#include "kernels/spapt.hpp"
#include "ml/forest.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "obs/thread_pool_metrics.hpp"
#include "support/span_context.hpp"
#include "support/thread_pool.hpp"
#include "orio/codegen.hpp"
#include "service/protocol.hpp"
#include "service/resilient_client.hpp"
#include "service/server.hpp"
#include "support/cancellation.hpp"
#include "sim/cost_model.hpp"
#include "sim/trace_sim.hpp"
#include "tuner/faults.hpp"
#include "tuner/guard.hpp"
#include "tuner/parallel.hpp"
#include "tuner/random_search.hpp"
#include "tuner/sampler.hpp"
#include "tuner/search_loop.hpp"

namespace {

using namespace portatune;

std::vector<tuner::ParamConfig> feasible_configs(
    const kernels::SpaptProblemPtr& prob, std::size_t count) {
  Rng rng(2);
  std::vector<tuner::ParamConfig> configs;
  while (configs.size() < count) {
    auto c = prob->space().random_config(rng);
    if (prob->feasible(c)) configs.push_back(std::move(c));
  }
  return configs;
}

ml::Dataset lu_training_data() {
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  tuner::SearchOptions opt;
  opt.max_evals = 100;
  opt.seed = 1;
  return tuner::random_search(wm, opt).to_dataset(lu->space());
}

/// A surrogate's T_a as a transfer cell fits it: 100 random-search
/// evaluations on Westmere at seed 7. LU has 9 columns; the raytracer
/// (RT) has 247 compiler flags, the widest input the forest sees.
struct SurrogateInput {
  tuner::EvaluatorPtr eval;
  ml::Dataset train;
  explicit SurrogateInput(const std::string& problem)
      : eval(apps::make_simulated_evaluator(problem, "Westmere")) {
    tuner::SearchOptions opt;
    opt.max_evals = 100;
    opt.seed = 7;
    train = tuner::random_search(*eval, opt).to_dataset(eval->space());
  }
};

void BM_ForestFit(benchmark::State& state, ml::Dataset (*input)()) {
  const auto data = input();
  ml::ForestParams fp;
  fp.num_trees = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest(fp);
    forest.fit(data);
    benchmark::DoNotOptimize(forest.num_trees());
  }
}
BENCHMARK_CAPTURE(BM_ForestFit, LU, lu_training_data)->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_ForestFit, RT, [] { return SurrogateInput("RT").train; })
    ->Arg(64);

/// One transfer cell's pool rank: draw a 10 000-configuration pool and
/// rank it by the default forest, as RS_p's cutoff and RS_b do. Unlike
/// BM_ForestPredict, the rows are distinct draws, so the walks take the
/// branches a real pool takes.
void BM_RankPool(benchmark::State& state, const char* problem) {
  const SurrogateInput input(problem);
  ml::RandomForest forest;
  forest.fit(input.train);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        tuner::rank_pool(&forest, input.eval->space(), seed++, 10000));
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK_CAPTURE(BM_RankPool, LU, "LU")
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RankPool, RT, "RT")
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto data = lu_training_data();
  ml::RandomForest forest;
  forest.fit(data);
  const std::vector<double> x(data.row(0).begin(), data.row(0).end());
  for (auto _ : state) benchmark::DoNotOptimize(forest.predict(x));
}
BENCHMARK(BM_ForestPredict);

void BM_AnalyticCostModel(benchmark::State& state) {
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator sb(lu, sim::make_sandybridge());
  Rng rng(2);
  std::vector<tuner::ParamConfig> configs;
  while (configs.size() < 64) {
    auto c = lu->space().random_config(rng);
    if (lu->feasible(c)) configs.push_back(std::move(c));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sb.evaluate(configs[i++ % configs.size()]));
  }
}
BENCHMARK(BM_AnalyticCostModel);

void BM_TraceSimulation(benchmark::State& state) {
  sim::LoopNest nest;
  nest.name = "mm";
  const std::int64_t n = state.range(0);
  nest.loops = {{"i", n, 1.0}, {"j", n, 1.0}, {"k", n, 1.0}};
  nest.arrays = {{"C", {n, n}, 8}, {"A", {n, n}, 8}, {"B", {n, n}, 8}};
  sim::Statement s;
  s.depth = 3;
  s.refs = {{0, {sim::idx(0), sim::idx(1)}, true},
            {1, {sim::idx(0), sim::idx(2)}, false},
            {2, {sim::idx(2), sim::idx(1)}, false}};
  nest.stmts = {s};
  const std::vector<sim::CacheLevelSpec> hierarchy{
      {"L1", 32 * 1024, 64, 8, 4, false, 0.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_nest(
        nest, sim::NestTransform::identity(3), hierarchy));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 3);
}
BENCHMARK(BM_TraceSimulation)->Arg(16)->Arg(32);

void BM_ConfigSampling(benchmark::State& state) {
  auto mm = kernels::make_mm();
  tuner::ConfigStream stream(mm->space(), 3);
  for (auto _ : state) benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_ConfigSampling);

// --- Observability overhead -----------------------------------------
// The instrumentation is compiled into every search path but must be
// dormant when no sink is installed: these bound the disabled-path cost
// (the acceptance bar is < 1 % on search throughput, see BM_RandomSearch).

void BM_ObsDisabledEnabledCheck(benchmark::State& state) {
  // The guard every instrumented site evaluates: one relaxed atomic load.
  for (auto _ : state)
    benchmark::DoNotOptimize(obs::enabled(obs::Severity::Info));
}
BENCHMARK(BM_ObsDisabledEnabledCheck);

void BM_ObsDisabledScopedTimer(benchmark::State& state) {
  // Inert span: no sink, no histogram -> no clock reads, no allocation.
  for (auto _ : state) {
    obs::ScopedTimer span("bench.noop", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsDisabledScopedTimer);

void BM_ObsDisabledSpanScope(benchmark::State& state) {
  // The causal-context install/restore every pool task pays: two TLS
  // word writes, no atomics, no clock.
  const SpanContext ctx{42};
  for (auto _ : state) {
    SpanScope scope(ctx);
    benchmark::DoNotOptimize(current_span_context().span);
  }
}
BENCHMARK(BM_ObsDisabledSpanScope);

void BM_PoolFanOutDormant(benchmark::State& state) {
  // Thread-pool fan-out with telemetry dormant (no observer installed):
  // bounds the per-task cost of the context capture + observer check.
  ThreadPool pool(4);
  for (auto _ : state)
    pool.parallel_for(0, 256, [](std::size_t i) {
      benchmark::DoNotOptimize(i);
    });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 256));
}
BENCHMARK(BM_PoolFanOutDormant)->UseRealTime();

void BM_PoolFanOutWithMetrics(benchmark::State& state) {
  // Same fan-out with ThreadPoolMetrics installed: adds two clock reads
  // and a handful of relaxed atomic RMWs per task.
  obs::MetricsRegistry registry;
  obs::ScopedThreadPoolMetrics metrics(&registry);
  ThreadPool pool(4);
  for (auto _ : state)
    pool.parallel_for(0, 256, [](std::size_t i) {
      benchmark::DoNotOptimize(i);
    });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 256));
}
BENCHMARK(BM_PoolFanOutWithMetrics)->UseRealTime();

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("bench.counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("bench.hist");
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 10.0 ? v * 1.001 : 1e-6;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsFlightRecorderRecord(benchmark::State& state) {
  // The flight recorder in the sink chain: one ring-slot copy per event.
  // This is the per-event cost telemetry adds when logging is already on
  // (with logging off the recorder never sees the event at all — that
  // dormant path is BM_ObsDisabledEnabledCheck).
  obs::FlightRecorder rec(256);
  const obs::Event e =
      obs::make_instant(obs::Severity::Debug, "bench.event", "bench", {});
  for (auto _ : state) {
    rec.log(e);
    benchmark::DoNotOptimize(rec.events_seen());
  }
}
BENCHMARK(BM_ObsFlightRecorderRecord);

// --- Service protocol overhead ---------------------------------------
// The request path every daemon op pays: JSON parse -> dispatch ->
// JSON encode, plus (when telemetry is on) the per-op instrument
// updates. BM_ServerOpDormant is the regression gate for the dormant
// guarantee: with telemetry off and no sink installed a request costs
// no clock read and no instrument update.

service::TuningService& bench_service() {
  static service::TuningService* svc = [] {
    service::TuningServiceOptions opt;
    const auto dir =
        std::filesystem::temp_directory_path() / "portatune_bench_proto";
    std::filesystem::remove_all(dir);
    opt.data_dir = dir.string();
    return new service::TuningService(opt);
  }();
  return *svc;
}

void BM_ProtocolEncodeDecode(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRedirect redirect(registry);
  service::ServiceProtocol proto(bench_service());
  const std::string line = R"({"op":"status"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.handle_line(line).line.size());
  }
}
BENCHMARK(BM_ProtocolEncodeDecode);

void BM_ServerOpDormant(benchmark::State& state) {
  service::ProtocolOptions opt;
  opt.telemetry = false;  // and no sink installed => fully dormant
  service::ServiceProtocol proto(bench_service(), opt);
  const std::string line = R"({"op":"status"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.handle_line(line).line.size());
  }
}
BENCHMARK(BM_ServerOpDormant);

void BM_ProtocolRidDormant(benchmark::State& state) {
  // A mutating op *without* a rid: the exactly-once machinery's cost for
  // clients that never opt in — one member probe on the parsed request,
  // no cache lookups, no reply copies. This is the regression gate for
  // the "rids are free unless used" guarantee.
  service::ProtocolOptions opt;
  opt.telemetry = false;
  service::ServiceProtocol proto(bench_service(), opt);
  proto.handle_line(
      R"({"op":"open","id":"ridbench","problem":"LU",)"
      R"("machine":"Westmere","max_evals":10,"seed":3})");
  const std::string line = R"({"op":"suggest","id":"ridbench","n":0})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.handle_line(line).line.size());
  }
}
BENCHMARK(BM_ProtocolRidDormant);

#if defined(__unix__) || defined(__APPLE__)
// One real daemon + one ResilientClient over its Unix socket: the
// steady-state cost of a call when nothing goes wrong — rid stamping,
// poll-timed read, reply parse for the retry_after probe. Bounds the
// overhead the resilience layer adds to every healthy request.
struct ResilientBenchHarness {
  ResilientBenchHarness() {
    socket = (std::filesystem::temp_directory_path() /
              "portatune_bench_resilient.sock")
                 .string();
    service::ServeOptions sopt;
    sopt.protocol.telemetry = false;
    thread = std::thread([this, sopt] {
      service::serve_unix_socket(bench_service(), socket, cancel.token(),
                                 sopt);
    });
    while (!std::filesystem::exists(socket))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~ResilientBenchHarness() {
    cancel.request_cancel();
    thread.join();
  }
  CancellationSource cancel;
  std::string socket;
  std::thread thread;
};

void BM_ResilientClientHappyPath(benchmark::State& state) {
  static ResilientBenchHarness harness;
  service::ResilientClient client(harness.socket);
  const std::string line = R"({"op":"status"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.call(line).size());
  }
}
BENCHMARK(BM_ResilientClientHappyPath);
#endif  // UNIX

void BM_ObsHistogramPercentile(benchmark::State& state) {
  // Snapshot-time percentile interpolation: what every sampler tick pays
  // per histogram (observe() itself never computes percentiles).
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("bench.hist");
  double v = 1e-6;
  for (int i = 0; i < 4096; ++i) {
    h.observe(v);
    v = v < 10.0 ? v * 1.01 : 1e-6;
  }
  for (auto _ : state) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    benchmark::DoNotOptimize(snap.histograms[0].p99);
  }
}
BENCHMARK(BM_ObsHistogramPercentile);

// --- Guard overhead ---------------------------------------------------
// The surrogate-trust guard (tuner/guard.hpp) is compiled into RS_p and
// RS_b but must be free when GuardOptions::enabled is false: the monitor
// optional stays empty and every per-draw check is one boolean. These
// bound the dormant-path cost; BM_GuardTrustUpdate bounds the armed-path
// cost of one windowed-Spearman trust refresh for scale.

void BM_GuardDisabledPrunedSearch(benchmark::State& state) {
  // Full RS_p with the guard off: the baseline the --compare-bench gate
  // holds the guarded build to.
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  ml::RandomForest model;
  model.fit(lu_training_data());
  tuner::SearchOptions opt;
  opt.max_evals = 50;
  opt.pool_size = 1000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(tuner::pruned_random_search(wm, model, opt));
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_GuardDisabledPrunedSearch);

void BM_GuardDisabledBiasedSearch(benchmark::State& state) {
  // Full RS_b with the guard off (dormant reorder/refit plumbing).
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  ml::RandomForest model;
  model.fit(lu_training_data());
  tuner::SearchOptions opt;
  opt.max_evals = 50;
  opt.pool_size = 1000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(tuner::biased_random_search(wm, model, opt));
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_GuardDisabledBiasedSearch);

void BM_GuardTrustUpdate(benchmark::State& state) {
  // Armed path: one observe() = window push + Spearman over 25 pairs.
  tuner::GuardOptions gopt;
  gopt.enabled = true;
  tuner::TrustMonitor monitor(gopt, "bench");
  double pred = 0.1;
  std::size_t evals = 0;
  for (auto _ : state) {
    pred = pred < 1.0 ? pred * 1.01 : 0.1;
    monitor.observe(pred, pred * 1.1, ++evals);
    benchmark::DoNotOptimize(monitor.trust());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GuardTrustUpdate);

void BM_RandomSearch(benchmark::State& state) {
  // Full instrumented search with observability dormant (no sink): the
  // throughput to compare pre/post-instrumentation builds on.
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  tuner::SearchOptions opt;
  opt.max_evals = 50;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(tuner::random_search(wm, opt));
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_RandomSearch);

// --- Parallel evaluation scaling -------------------------------------
// The batched-evaluation seam: one window fanned out over N workers. Two
// regimes matter. Real autotuning evaluations are latency-bound — each
// measurement occupies its worker for a compile+run wall-clock interval —
// so the fan-out overlaps those waits and scales with the worker count
// even on a single core (modeled by an injected per-attempt delay). The
// pure cost-model regime is CPU-bound and scales only with physical
// cores. UseRealTime throughout: wall time is what the fan-out buys.

void BM_BatchEvalLatencyBound(benchmark::State& state) {
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  tuner::FaultProfile fp;
  fp.delay_rate = 1.0;  // every attempt waits, like a real compile+run
  fp.delay_seconds = 0.001;
  tuner::FaultInjectingEvaluator slow(wm, fp);
  tuner::ParallelOptions popt;
  popt.threads = static_cast<std::size_t>(state.range(0));
  tuner::ParallelEvaluator par(slow, popt);
  const auto batch = feasible_configs(lu, 32);
  for (auto _ : state) benchmark::DoNotOptimize(par.evaluate_batch(batch));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_BatchEvalLatencyBound)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_BatchEvalCpuBound(benchmark::State& state) {
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  tuner::ParallelOptions popt;
  popt.threads = static_cast<std::size_t>(state.range(0));
  tuner::ParallelEvaluator par(wm, popt);
  const auto batch = feasible_configs(lu, 32);
  for (auto _ : state) benchmark::DoNotOptimize(par.evaluate_batch(batch));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_BatchEvalCpuBound)->Arg(1)->Arg(8)->UseRealTime();

void BM_ParallelRandomSearch(benchmark::State& state) {
  // Full RS through the batched window loop, latency-bound evaluations.
  auto lu = kernels::make_lu();
  kernels::SimulatedKernelEvaluator wm(lu, sim::make_westmere());
  tuner::FaultProfile fp;
  fp.delay_rate = 1.0;
  fp.delay_seconds = 0.0005;
  tuner::FaultInjectingEvaluator slow(wm, fp);
  tuner::ParallelOptions popt;
  popt.threads = static_cast<std::size_t>(state.range(0));
  tuner::ParallelEvaluator par(slow, popt);
  tuner::SearchOptions opt;
  opt.max_evals = 64;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    benchmark::DoNotOptimize(tuner::random_search(par, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_ParallelRandomSearch)
    ->Arg(1)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);

tuner::ExperimentJob latency_cell(const std::string& problem,
                                  const std::string& source,
                                  const std::string& target) {
  tuner::ExperimentJob job;
  job.label = problem + " " + source + "->" + target;
  job.settings = bench::paper_settings();
  job.settings.max_evals = 30;
  job.settings.pool_size = 1000;
  const auto make = [problem](const std::string& machine) {
    auto o = bench::paper_stack_options(problem, machine);
    o.faults.delay_rate = 1.0;  // latency-bound, as real measurements are
    o.faults.delay_seconds = 0.0005;
    return apps::make_evaluator_stack(o);
  };
  job.make_source = [=] { return make(source); };
  job.make_target = [=] { return make(target); };
  return job;
}

void BM_TableIvCells(benchmark::State& state) {
  // Independent Table IV-style cells fanned out over the experiment
  // pool; latency-bound evaluations as above. The acceptance bar for the
  // parallel engine is >= 3x cell throughput at 8 workers vs 1.
  const std::vector<std::string> problems = {"ATAX", "LU"};
  const std::vector<std::string> targets = {"Sandybridge", "Power7",
                                            "X-Gene"};
  for (auto _ : state) {
    std::vector<tuner::ExperimentJob> jobs;
    for (const auto& p : problems)
      for (const auto& t : targets)
        jobs.push_back(latency_cell(p, "Westmere", t));
    const auto results = tuner::run_transfer_experiments(
        jobs, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 6));
}
BENCHMARK(BM_TableIvCells)
    ->Arg(1)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_CodeGeneration(benchmark::State& state) {
  auto prob = kernels::make_mm(256);
  auto c = prob->space().default_config();
  c[0] = 7;   // U_I = 8
  c[4] = 6;   // T_J = 64
  c[8] = 2;   // RT_K = 4
  while (!prob->feasible(c)) c[8]--;
  const auto t = prob->transforms(c, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        orio::generate_c(prob->phases()[0].nest, t[0], "mm"));
  }
}
BENCHMARK(BM_CodeGeneration);

}  // namespace

BENCHMARK_MAIN();
