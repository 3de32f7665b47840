// The transfer-grid workload: all 48 populated Table IV cells (Sec. IV-D
// experiments) per pass, fanned over nproc workers by
// tuner::run_transfer_experiments. Evaluations are simulated (us), so the
// surrogate dominates. Cells are timed from outside through the experiment
// hooks and a timing decorator around each cell's evaluator stacks, and
// checked cell by cell against reference digests.
//
// Every run also checks, untimed, that one cell whose evaluations sleep
// kDelaySeconds through the fault layer's delay channel and fan out over
// nproc threads digests exactly like the plain serial cell.
#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/evaluator_factory.hpp"
#include "apps/registry.hpp"
#include "common.hpp"
#include "ml/dataset.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/thread_pool_metrics.hpp"
#include "tuner/experiment.hpp"
#include "tuner/sampler.hpp"
#include "tuner/transfer.hpp"

namespace perfbench {
namespace {

namespace apps = portatune::apps;
namespace ml = portatune::ml;
namespace obs = portatune::obs;
namespace tuner = portatune::tuner;
namespace json = portatune::obs::json;
using portatune::mean;

/// Experiment seeds the references cover; a run walks them from --seed.
constexpr std::uint64_t kSeedBase = 20160401;
constexpr std::size_t kSeeds = 12;
/// The delayed, fanned-out conformance cell and its sleep per evaluation.
const char* const kDelayedCell = "LU Westmere->Sandybridge";
constexpr double kDelaySeconds = 0.001;
/// Distinct configurations the surrogate probe predicts and ranks.
constexpr std::size_t kProbePool = 10000;
/// Layer budget: a cell's phase rows plus the fit must cover its wall time
/// up to this share (plus kBudgetSlackSeconds); the rest is unattributed.
constexpr double kBudgetShare = 0.10;
constexpr double kBudgetSlackSeconds = 0.002;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

struct Cell {
  std::string problem, source, target;
  std::string label() const { return problem + " " + source + "->" + target; }
};

/// The 48 populated cells of Table IV, in the table's order (MM and COR
/// have no X-Gene column; the diagonal is empty).
const std::vector<Cell>& grid_cells() {
  static const std::vector<Cell> cells = [] {
    std::vector<Cell> out;
    for (const char* p : {"MM", "ATAX", "LU", "COR", "HPL", "RT"})
      for (const char* t : {"Westmere", "Sandybridge", "Power7", "X-Gene"})
        for (const char* s : {"Westmere", "Sandybridge", "Power7"}) {
          const std::string problem = p, source = s, target = t;
          if (source == target) continue;
          if (target == "X-Gene" && (problem == "MM" || problem == "COR"))
            continue;
          out.push_back({problem, source, target});
        }
    return out;
  }();
  return cells;
}

enum Phase { kSourceRs, kTargetRs, kPruned, kBiased, kPrunedMf, kBiasedMf,
             kPhases };
const char* const kPhaseNames[kPhases] = {"source_rs", "target_rs", "pruned",
                                          "biased",    "pruned_mf", "biased_mf"};

int phase_index(const std::string& name) {
  for (int i = 0; i < kPhases; ++i)
    if (name == kPhaseNames[i]) return i;
  throw std::runtime_error("unknown experiment phase '" + name + "'");
}

/// Everything observed about one cell. Written only by the worker that
/// runs the cell (hooks and evaluator calls all happen on it).
struct CellRecord {
  double start = 0.0, end = 0.0;
  double begin[kPhases] = {}, done[kPhases] = {};
  int current = -1;  ///< phase running now, -1 between phases
  double first_pruned_window = 0.0;
  double eval_seconds[kPhases] = {};
  std::size_t configs[kPhases] = {}, batches[kPhases] = {};
  std::vector<double> guided_windows, free_windows;  ///< seconds each

  void window(double t0, double t1, std::size_t n) {
    if (current < 0) return;  // not a search phase (never happens today)
    if (current == kPruned && first_pruned_window == 0.0)
      first_pruned_window = t0;
    eval_seconds[current] += t1 - t0;
    configs[current] += n;
    ++batches[current];
    (current == kPruned || current == kBiased ? guided_windows : free_windows)
        .push_back(t1 - t0);
  }
  double wall() const { return end - start; }
  double phase(int p) const { return done[p] - begin[p]; }
  /// fit_surrogate: from the end of target_rs to the start of pruned.
  double fit() const { return begin[kPruned] - done[kTargetRs]; }
  /// Surrogate preparation before the first guided evaluation: the fit
  /// plus RS_p's cutoff prediction.
  double open() const { return first_pruned_window - done[kTargetRs]; }
  double unattributed() const {
    double rows = fit();
    for (int p = 0; p < kPhases; ++p) rows += phase(p);
    return wall() - rows;
  }
};

/// Timing decorator around one evaluator stack of a cell. The source side
/// owns the cell clock: the job builds it first and destroys it last.
class TimedEvaluator final : public tuner::Evaluator {
 public:
  TimedEvaluator(std::unique_ptr<apps::EvaluatorStack> inner, CellRecord& rec,
                 bool owns_clock)
      : inner_(std::move(inner)), rec_(rec), owns_clock_(owns_clock) {}
  ~TimedEvaluator() override {
    inner_.reset();
    if (owns_clock_) rec_.end = now();
  }
  TimedEvaluator(const TimedEvaluator&) = delete;
  TimedEvaluator& operator=(const TimedEvaluator&) = delete;

  const tuner::ParamSpace& space() const override { return inner_->space(); }
  tuner::EvalResult evaluate(const tuner::ParamConfig& config) override {
    const double t0 = now();
    tuner::EvalResult r = inner_->evaluate(config);
    rec_.window(t0, now(), 1);
    return r;
  }
  std::vector<tuner::EvalResult> evaluate_batch(
      std::span<const tuner::ParamConfig> batch) override {
    const double t0 = now();
    std::vector<tuner::EvalResult> r = inner_->evaluate_batch(batch);
    rec_.window(t0, now(), batch.size());
    return r;
  }
  tuner::EvalCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  tuner::Evaluator* inner_evaluator() noexcept override { return inner_.get(); }
  std::string problem_name() const override { return inner_->problem_name(); }
  std::string machine_name() const override { return inner_->machine_name(); }

 private:
  std::unique_ptr<apps::EvaluatorStack> inner_;
  CellRecord& rec_;
  bool owns_clock_;
};

apps::EvaluatorStackOptions stack_options(const std::string& problem,
                                          const std::string& machine,
                                          bool delayed, std::size_t threads) {
  apps::EvaluatorStackOptions o;
  o.problem = problem;
  o.machine = machine;
  if (delayed) {
    o.faults.delay_rate = 1.0;
    o.faults.delay_seconds = kDelaySeconds;
    o.eval_threads = threads;
  }
  return o;
}

/// A cell with neither hooks nor timing decorator: what the traced run's
/// untraced pass runs.
tuner::ExperimentJob plain_job(const Cell& cell, std::uint64_t seed) {
  tuner::ExperimentJob job;
  job.label = cell.label();
  job.settings.seed = seed;  // otherwise the paper's nmax=100, N=10000, 20%
  job.make_source = [=] {
    return apps::make_evaluator_stack(stack_options(cell.problem, cell.source, false, 1));
  };
  job.make_target = [=] {
    return apps::make_evaluator_stack(stack_options(cell.problem, cell.target, false, 1));
  };
  return job;
}

/// A cell observed through the phase hooks and a timing decorator around
/// both stacks, recording into `rec`.
tuner::ExperimentJob make_job(const Cell& cell, std::uint64_t seed,
                              bool delayed, std::size_t threads,
                              CellRecord& rec) {
  tuner::ExperimentJob job;
  job.label = cell.label();
  job.settings.seed = seed;
  CellRecord* r = &rec;
  job.settings.hooks.restore_phase =
      [r](const std::string& name) -> std::optional<tuner::SearchTrace> {
    r->current = phase_index(name);
    r->begin[r->current] = now();
    return std::nullopt;
  };
  job.settings.hooks.phase_done = [r](const std::string& name,
                                      const tuner::SearchTrace&) {
    r->done[phase_index(name)] = now();
    r->current = -1;
  };
  job.make_source = [=] {
    r->start = now();
    return std::make_unique<TimedEvaluator>(
        apps::make_evaluator_stack(
            stack_options(cell.problem, cell.source, delayed, threads)),
        *r, true);
  };
  job.make_target = [=] {
    return std::make_unique<TimedEvaluator>(
        apps::make_evaluator_stack(
            stack_options(cell.problem, cell.target, delayed, threads)),
        *r, false);
  };
  return job;
}

/// FNV-1a over the bytes of everything a cell computes.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a cell's six traces (configurations, run times, search clock,
/// draw indices, failure accounting) and its derived speedups.
std::uint64_t digest(const tuner::TransferExperimentResult& r) {
  Digest d;
  for (const tuner::SearchTrace* t : {&r.source_rs, &r.target_rs, &r.pruned,
                                      &r.biased, &r.pruned_mf, &r.biased_mf}) {
    d.str(t->algorithm());
    d.u64(t->size());
    for (const tuner::TraceEntry& e : t->entries()) {
      for (int v : e.config) d.u64(static_cast<std::uint64_t>(v));
      d.f64(e.seconds);
      d.f64(e.elapsed);
      d.u64(e.draw_index);
    }
    const tuner::FailureStats& f = t->failure_stats();
    for (std::size_t v : {f.attempts, f.failures, f.transient,
                          f.deterministic, f.timeouts})
      d.u64(v);
    d.f64(f.overhead_seconds);
    d.str(t->stop_reason());
  }
  for (const tuner::Speedups* s : {&r.pruned_speedup, &r.biased_speedup,
                                   &r.pruned_mf_speedup, &r.biased_mf_speedup}) {
    d.f64(s->performance);
    d.f64(s->search);
  }
  d.f64(r.pearson);
  d.f64(r.spearman);
  d.f64(r.top_overlap);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// (seed index, grid cell) -> reference digest.
using References = std::map<std::pair<std::size_t, std::size_t>, std::string>;

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value v = json::Value::parse(buf.str());
  const auto& labels = v.at("cells").as_array();
  if (labels.size() != grid_cells().size())
    throw std::runtime_error("references cover a different grid");
  for (std::size_t c = 0; c < labels.size(); ++c)
    if (labels[c].as_string() != grid_cells()[c].label())
      throw std::runtime_error("references cover a different grid");
  References refs;
  for (std::size_t k = 0; k < kSeeds; ++k) {
    const auto& row = v.at("digests").at(std::to_string(kSeedBase + k)).as_array();
    if (row.size() != labels.size())
      throw std::runtime_error("references row of the wrong length");
    for (std::size_t c = 0; c < row.size(); ++c)
      refs[{k, c}] = row[c].as_string();
  }
  return refs;
}

/// The experiment seed of pass `pass`, as an index into the references: a
/// pure function of --seed.
std::size_t seed_index(const Options& opt, std::size_t pass) {
  return (opt.seed + pass) % kSeeds;
}

/// Totals over the passes a loop ran.
struct Tally {
  double wall = 0.0;
  std::size_t passes = 0;
  std::vector<double> pass_wall;  ///< seconds per pass
  std::vector<CellRecord> cells;  ///< pass-major
  std::vector<std::size_t> pruned_draws;  ///< draws RS_p consumed, per cell
  std::vector<std::pair<std::string, tuner::SearchTrace>> source_rs;  ///< T_a
};

/// Run `jobs` on `threads` threads of this process. Each thread takes the
/// next cell and runs it inline (run_transfer_experiments with one thread),
/// so no task of the experiment layer's pool reaches a pool observer.
std::vector<tuner::TransferExperimentResult> run_on_own_threads(
    const std::vector<tuner::ExperimentJob>& jobs, std::size_t threads) {
  std::vector<tuner::TransferExperimentResult> out(jobs.size());
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::min(threads, jobs.size()); ++t)
    workers.emplace_back([&] {
      try {
        for (std::size_t i; (i = next++) < jobs.size();)
          out[i] = std::move(tuner::run_transfer_experiments(std::span(&jobs[i], 1), 1)[0]);
      } catch (...) {
        const std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);
  return out;
}

/// How a pass runs its 48 cells.
enum class Pass {
  kWorkload,  ///< observed cells, fanned out by run_transfer_experiments
  kPlain,     ///< bare cells on this process's own threads
  kTraced,    ///< observed cells on this process's own threads
};

/// Run grid passes while `more(passes_done, elapsed)` holds, checking each
/// cell's digest. A traced pass also retains what per_layer analyses.
template <typename More>
Tally run_passes(const Options& opt, const References& refs, Report& rep,
                 More more, Pass mode) {
  const std::vector<Cell>& grid = grid_cells();
  Tally tally;
  const double t0 = now();
  while (more(tally.passes, now() - t0)) {
    const std::size_t k = seed_index(opt, tally.passes);
    std::vector<CellRecord> recs(grid.size());
    std::vector<tuner::ExperimentJob> jobs;
    for (std::size_t c = 0; c < grid.size(); ++c)
      jobs.push_back(mode == Pass::kPlain
                         ? plain_job(grid[c], kSeedBase + k)
                         : make_job(grid[c], kSeedBase + k, false, 1, recs[c]));
    const double p0 = now();
    const auto results = mode == Pass::kWorkload
                             ? tuner::run_transfer_experiments(jobs, opt.threads)
                             : run_on_own_threads(jobs, opt.threads);
    tally.pass_wall.push_back(now() - p0);
    for (std::size_t c = 0; c < results.size(); ++c) {
      ++rep.attempted;
      const std::string got = hex(digest(results[c]));
      const std::string& want = refs.at({k, c});
      if (got != want)
        rep.fail(grid[c].label() + " seed " + std::to_string(kSeedBase + k) +
                 ": digest " + got + " != reference " + want);
      if (mode == Pass::kTraced) {
        std::size_t draws = 0;
        for (const tuner::TraceEntry& e : results[c].pruned.entries())
          draws = std::max(draws, e.draw_index + 1);
        tally.pruned_draws.push_back(draws);
        tally.source_rs.push_back({grid[c].problem, results[c].source_rs});
      }
    }
    if (mode != Pass::kPlain)
      for (CellRecord& r : recs) tally.cells.push_back(std::move(r));
    ++tally.passes;
  }
  tally.wall = now() - t0;
  return tally;
}

/// Run grid cell `label` at the first pass's seed, alone, and compare its
/// digest with the reference.
void check_cell(const Options& opt, const References& refs,
                const std::string& label, bool delayed, Report& rep) {
  const std::vector<Cell>& grid = grid_cells();
  const auto it = std::find_if(grid.begin(), grid.end(),
                               [&](const Cell& c) { return c.label() == label; });
  const auto c = static_cast<std::size_t>(it - grid.begin());
  const std::size_t k = seed_index(opt, 0);
  CellRecord rec;
  const std::vector<tuner::ExperimentJob> jobs = {
      make_job(grid[c], kSeedBase + k, delayed, opt.threads, rec)};
  const auto results = tuner::run_transfer_experiments(jobs, 1);
  if (hex(digest(results[0])) != refs.at({k, c}))
    rep.error(label + (delayed ? " with delayed, fanned-out evaluations" : "") +
              " does not match its reference digest");
}

/// Set-up: load the references, build every evaluator stack the grid uses
/// once, and run one warm-up cell. Returns the references.
References set_up(const Options& opt, Report& rep) {
  References refs = load_references(opt.references);
  std::set<std::pair<std::string, std::string>> stacks;
  for (const Cell& c : grid_cells()) {
    stacks.insert({c.problem, c.source});
    stacks.insert({c.problem, c.target});
  }
  for (const auto& [problem, machine] : stacks)
    apps::make_evaluator_stack(stack_options(problem, machine, false, 1));
  check_cell(opt, refs, grid_cells().front().label(), false, rep);
  return refs;
}

template <typename F>
std::vector<double> per_cell(const std::vector<CellRecord>& cells, F f) {
  std::vector<double> out;
  out.reserve(cells.size());
  for (const CellRecord& c : cells) out.push_back(f(c));
  return out;
}

/// Sum of a per-phase counter over the six phases.
template <typename T>
double all_phases(const T (&v)[kPhases]) {
  return static_cast<double>(std::accumulate(v, v + kPhases, T{}));
}

/// Work per second as the median over passes, so a burst of host noise
/// moves one pass, not the rate.
template <typename F>
double rate(const Tally& t, F work) {
  const std::size_t per_pass = t.cells.size() / t.passes;
  std::vector<double> rates;
  for (std::size_t p = 0; p < t.passes; ++p) {
    double w = 0.0;
    for (std::size_t i = p * per_pass; i < (p + 1) * per_pass; ++i)
      w += work(t.cells[i]);
    rates.push_back(w / t.pass_wall[p]);
  }
  return median(rates);
}

void end_to_end(const Tally& t, Report& rep) {
  std::vector<double> guided, light;
  for (const CellRecord& c : t.cells) {
    guided.insert(guided.end(), c.guided_windows.begin(), c.guided_windows.end());
    light.insert(light.end(), c.free_windows.begin(), c.free_windows.end());
  }
  rep.add("cells_per_s", rate(t, [](const CellRecord&) { return 1.0; }), "1/s");
  const auto wall = per_cell(t.cells, [](const CellRecord& c) { return c.wall(); });
  rep.percentile("cell_ms_p50", wall, 0.50, 1e3, "ms");
  rep.percentile("cell_ms_p90", wall, 0.90, 1e3, "ms");
  rep.add("evals_per_s",
          rate(t, [](const CellRecord& c) { return all_phases(c.configs); }),
          "1/s");
  rep.add("ops_per_s",
          rate(t, [](const CellRecord& c) { return all_phases(c.batches); }),
          "1/s");
  rep.percentile("step_ms_p50", guided, 0.50, 1e3, "ms");
  rep.percentile("step_ms_p99", guided, 0.99, 1e3, "ms");
  const auto open = per_cell(t.cells, [](const CellRecord& c) { return c.open(); });
  rep.percentile("open_ms_p50", open, 0.50, 1e3, "ms");
  rep.percentile("open_ms_p90", open, 0.90, 1e3, "ms");
  rep.percentile("light_ms_p99", light, 0.99, 1e3, "ms");
}

/// Sample / encode / fit / predict / argsort on one cell's T_a and a pool
/// of kProbePool distinct configurations from the cell's draw stream.
struct ProbeRow {
  double sample_ns = 0, encode_ns = 0, fit_ms = 0, batch_ns = 0, one_ns = 0,
         argsort_ms = 0;
  bool batch_matches_one = true;
};

ProbeRow probe(const std::string& problem, const tuner::SearchTrace& ta,
               std::uint64_t seed) {
  ProbeRow row;
  const tuner::EvaluatorPtr eval = apps::make_simulated_evaluator(problem, "Westmere");
  const tuner::ParamSpace& space = eval->space();

  double t0 = now();
  tuner::ConfigStream stream(space, seed);
  std::vector<tuner::ParamConfig> pool;
  pool.reserve(kProbePool);
  while (pool.size() < kProbePool) {
    std::optional<tuner::ParamConfig> c = stream.next();
    if (!c) break;
    pool.push_back(std::move(*c));
  }
  const double n = static_cast<double>(pool.size());
  row.sample_ns = (now() - t0) / n * 1e9;

  t0 = now();
  ml::Dataset rows(space.num_params());
  for (const tuner::ParamConfig& c : pool) rows.add_row(space.features(c), 0.0);
  row.encode_ns = (now() - t0) / n * 1e9;

  ml::ForestParams fp;
  fp.seed = seed;
  t0 = now();
  const ml::RegressorPtr model = tuner::fit_surrogate(ta, space, fp);
  row.fit_ms = (now() - t0) * 1e3;

  t0 = now();
  const std::vector<double> pred = model->predict_batch(rows);
  row.batch_ns = (now() - t0) / n * 1e9;

  t0 = now();
  for (std::size_t i = 0; i < rows.num_rows(); ++i)
    if (model->predict(rows.row(i)) != pred[i]) row.batch_matches_one = false;
  row.one_ns = (now() - t0) / n * 1e9;

  t0 = now();
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return pred[a] < pred[b]; });
  row.argsort_ms = (now() - t0) * 1e3;
  return row;
}

void per_layer(const Tally& t, std::size_t seed_index,
               const obs::MetricsSnapshot& pool, double overhead, Report& rep) {
  const auto& cells = t.cells;
  for (int p = 0; p < kPhases; ++p)
    rep.add(std::string("tuner.") + kPhaseNames[p] + ".ms",
            mean(per_cell(cells, [p](const CellRecord& c) { return c.phase(p); })) * 1e3,
            "ms");
  rep.add("tuner.eval.ms", mean(per_cell(cells, [](const CellRecord& c) {
            return all_phases(c.eval_seconds);
          })) * 1e3, "ms");
  rep.add("tuner.eval.configs", mean(per_cell(cells, [](const CellRecord& c) {
            return all_phases(c.configs);
          })), "count");
  rep.add("tuner.eval.batches", mean(per_cell(cells, [](const CellRecord& c) {
            return all_phases(c.batches);
          })), "count");
  for (int p : {kPruned, kBiased})
    rep.add(std::string("tuner.") + kPhaseNames[p] + ".self_ms",
            mean(per_cell(cells, [p](const CellRecord& c) {
              return c.phase(p) - c.eval_seconds[p];
            })) * 1e3, "ms");

  // RS_p evaluates only draws it does not prune: evaluations per draw.
  double evaluated = 0, draws = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    evaluated += static_cast<double>(cells[i].configs[kPruned]);
    draws += static_cast<double>(t.pruned_draws[i]);
  }
  rep.add("tuner.pruned.eval_ratio", draws > 0 ? evaluated / draws : 0.0, "ratio");

  // Layer budget: the phase rows and the fit must explain each cell's wall.
  for (const CellRecord& c : cells)
    if (c.unattributed() > kBudgetShare * c.wall() + kBudgetSlackSeconds ||
        c.unattributed() < 0.0)
      rep.error("cell rows leave " + std::to_string(c.unattributed() * 1e3) +
                " ms of a " + std::to_string(c.wall() * 1e3) +
                " ms cell unattributed");
  rep.add("tuner.cell.unattributed_ms",
          mean(per_cell(cells, [](const CellRecord& c) { return c.unattributed(); })) * 1e3,
          "ms");
  rep.add("ml.fit.ms",
          mean(per_cell(cells, [](const CellRecord& c) { return c.fit(); })) * 1e3, "ms");

  // Surrogate probe over the traced cells' T_a (one grid pass at most).
  std::vector<ProbeRow> rows;
  const std::size_t probes = std::min(t.source_rs.size(), grid_cells().size());
  for (std::size_t i = 0; i < probes; ++i)
    rows.push_back(probe(t.source_rs[i].first, t.source_rs[i].second,
                         kSeedBase + seed_index));
  const auto med = [&](double ProbeRow::*field) {
    std::vector<double> v;
    for (const ProbeRow& r : rows) v.push_back(r.*field);
    return median(v);
  };
  for (const ProbeRow& r : rows)
    if (!r.batch_matches_one)
      rep.error("predict_batch disagrees with predict on the probe pool");
  rep.add("tuner.sampler.ns_per_draw", med(&ProbeRow::sample_ns), "ns");
  rep.add("tuner.param.ns_per_row", med(&ProbeRow::encode_ns), "ns");
  rep.add("ml.forest.fit_ms", med(&ProbeRow::fit_ms), "ms");
  rep.add("ml.forest.predict_ns_per_row", med(&ProbeRow::batch_ns), "ns");
  rep.add("ml.forest.predict_one_ns", med(&ProbeRow::one_ns), "ns");
  rep.add("tuner.rank.argsort_ms", med(&ProbeRow::argsort_ms), "ms");

  double tasks = 0;
  for (const auto& [name, v] : pool.counters)
    if (name == "pool.tasks_completed") tasks = static_cast<double>(v);
  rep.add("support.pool.tasks", tasks / static_cast<double>(cells.size()), "1/cell");
  for (const obs::HistogramSnapshot& h : pool.histograms)
    if (h.name == "pool.queue_wait_seconds") {
      rep.samples.push_back({"support.pool.queue_wait_ms", h.count});
      rep.add("support.pool.queue_wait_ms_p50", h.percentile(0.50) * 1e3, "ms");
      rep.add("support.pool.queue_wait_ms_p99", h.percentile(0.99) * 1e3, "ms");
    }
  rep.add("obs.trace_overhead_ratio", overhead, "ratio");
}

}  // namespace

Report run_transfer(const Options& opt) {
  Report rep;
  std::vector<double> setups;
  References refs;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now();
    refs = set_up(opt, rep);
    setups.push_back(now() - t0);
  }
  check_cell(opt, refs, kDelayedCell, true, rep);

  if (!opt.trace) {
    const Tally t = run_passes(
        opt, refs, rep,
        [&](std::size_t done, double elapsed) {
          return done == 0 || elapsed < opt.seconds;
        },
        Pass::kWorkload);
    end_to_end(t, rep);
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  // Traced run: bare passes, then the same passes with every observer on
  // (hooks, timing decorator, pool metrics, kept traces); the ratio of the
  // two wall times is what the observation costs. Both fan out over this
  // process's own threads, so the pool metrics see only the global pool.
  const Tally plain = run_passes(
      opt, refs, rep,
      [&](std::size_t done, double elapsed) {
        return done == 0 || elapsed < opt.seconds / 2;
      },
      Pass::kPlain);
  obs::MetricsRegistry pool_registry;
  Tally traced;
  {
    obs::ScopedThreadPoolMetrics pool_metrics(&pool_registry);
    traced = run_passes(
        opt, refs, rep,
        [&](std::size_t done, double) { return done < plain.passes; },
        Pass::kTraced);
  }
  per_layer(traced, seed_index(opt, 0), pool_registry.snapshot(),
            traced.wall / plain.wall - 1.0, rep);
  return rep;
}

int write_references(const Options& opt) {
  std::string out = "{\"cells\":[";
  for (std::size_t c = 0; c < grid_cells().size(); ++c)
    out += (c ? ",\"" : "\"") + grid_cells()[c].label() + "\"";
  out += "],\n\"digests\":{";
  for (std::size_t k = 0; k < kSeeds; ++k) {
    std::vector<CellRecord> recs(grid_cells().size());
    std::vector<tuner::ExperimentJob> jobs;
    for (std::size_t c = 0; c < grid_cells().size(); ++c)
      jobs.push_back(make_job(grid_cells()[c], kSeedBase + k, false, 1, recs[c]));
    const auto results = tuner::run_transfer_experiments(jobs, opt.threads);
    out += std::string(k ? ",\n" : "\n") + "\"" + std::to_string(kSeedBase + k) + "\":[";
    for (std::size_t c = 0; c < results.size(); ++c)
      out += (c ? ",\"" : "\"") + hex(digest(results[c])) + "\"";
    out += "]";
    std::fprintf(stderr, "seed %llu done\n",
                 static_cast<unsigned long long>(kSeedBase + k));
  }
  out += "}}\n";
  std::ofstream(opt.references) << out;
  return 0;
}

}  // namespace perfbench
