// portatune_cli — command-line driver for the transfer workflow.
//
//   portatune_cli list
//       list problems and machines
//   portatune_cli collect --problem LU --machine Westmere --out ta.csv
//       run RS (n_max evals) and save the trace T_a (a checkpoint CSV,
//       byte-identical to the final --checkpoint snapshot)
//       resilience options: --faults <rate> injects transient failures,
//       --retries N / --timeout S configure the resilient evaluator
//       (--timeout is its per-attempt deadline; no other command has one),
//       --checkpoint ck.csv snapshots every --ckpt-every evals, and
//       --resume ck.csv continues an interrupted collection exactly
//   portatune_cli transfer --problem LU --source Westmere --target Sandybridge
//                          [--from ta.csv] [--nmax 100] [--delta 20]
//       run the full Sec. IV-D experiment (optionally reusing a saved T_a)
//   portatune_cli similarity --problem LU --source Westmere --target X-Gene
//       probe-based machine-similarity report and transfer advice
//   portatune_cli experiment --problem LU --pairs W:SB,W:XG --run-dir d
//       journaled experiment fan-out: one Sec. IV-D cell per src:tgt
//       pair, each phase persisted as it completes into <run-dir>. A run
//       killed or interrupted mid-flight is continued exactly with
//       --resume <run-dir> (done cells restored, partial searches resumed
//       from their checkpoints).
//   portatune_cli status --run-dir d [--stale-after 10]
//       read-only live view of a journaled run: journal summary,
//       heartbeat freshness, per-cell progress, throughput/ETA — the
//       finished work from the journal and its phase files, the live
//       state from the last row of metrics_timeseries.jsonl. Safe to
//       invoke while the run is executing (the journal and phase files
//       are written atomically; a torn time-series row is skipped).
//       Exit 0 = running or complete, 2 = dead (stale/missing
//       heartbeat with unfinished cells; prints the resume hint) or not
//       a run directory at all (no journal.csv).
//   portatune_cli status --socket /tmp/pt.sock [--interval 0.5]
//       live view of a running tuning service instead: issues the
//       `stats` op twice, --interval seconds apart, and renders a
//       per-op table (count, rate/s from the two samples, latency
//       p50/p95/p99, errors) plus a server summary line. Exit 0 on a
//       healthy reply, 2 when the daemon is unreachable — including a
//       daemon that dies *between* the two samples (prints a dead-socket
//       hint, never crashes).
//   portatune_cli serve --socket /tmp/pt.sock [--data-dir d]
//       run the tuning service: multiplexes concurrent tuning sessions
//       over a persistent surrogate store and a shared evaluation cache,
//       speaking line-delimited JSON on a Unix socket (see
//       src/service/protocol.hpp for the ops). SIGTERM checkpoints every
//       open session and exits 3; the shutdown op exits 0. Either way a
//       later serve on the same --data-dir can resume each session.
//       The daemon gets the journaled-run telemetry treatment: unless
//       --telemetry-every 0, it maintains metrics_timeseries.jsonl (its
//       heartbeat, with the service gauges refreshed every period) and
//       flight_recorder.jsonl under --data-dir, and
//       --log-json/--chrome-trace/--metrics-out emit their artifacts on
//       both exit paths. --slow-request S (default 1) sets the Warn
//       threshold for slow protocol requests.
//       Resilience knobs: --lease-seconds S checkpoints-and-evicts
//       sessions idle past the lease (0 = sessions live forever);
//       --client-rate R / --client-burst B token-bucket each connection
//       (over-budget requests get a typed retry_after error). The
//       protocol's exactly-once reply cache persists to
//       <data-dir>/protocol_state.json across restarts.
//   portatune_cli call --socket /tmp/pt.sock --request '{"op":"status"}'
//       one-shot service client: send one request line, print the reply
//       line. Exit 0 when the reply says ok, 1 otherwise. Rides the
//       resilient client: reconnects and retries (exactly-once via rid
//       stamping on mutating ops) until --deadline seconds (default 10).
//
// Live telemetry (experiment): unless --telemetry-every 0, a journaled
// run continuously maintains two files in <run-dir>:
//   metrics_timeseries.jsonl  one metrics sample appended per period —
//                             the heartbeat `status` reads
//   flight_recorder.jsonl     ring of the last events at ALL severities,
//                             dumped on SIGINT/SIGTERM, deadline hangs,
//                             search aborts, PT_REQUIRE failures, and
//                             every sampler tick (so even SIGKILL leaves
//                             a black box at most one period old)
//
// Graceful shutdown (collect/experiment): SIGINT/SIGTERM requests
// cooperative cancellation — searches stop at the next window boundary,
// checkpoints/journal/logs are flushed, and the process exits with code 3
// so scripts can distinguish "interrupted but resumable" from success (0)
// and failure (1). A second signal force-exits immediately.
//
// Parallel evaluation (collect/transfer): --threads N fans evaluation
// windows out over N worker threads (0 = all hardware threads). Traces
// are bit-identical to --threads 1 runs: windows are processed in draw
// order and the simulated backends are pure functions of (machine,
// config).
//
// Guarded transfer (transfer): --guard enables the surrogate-trust
// monitor inside RS_p / RS_b — a sliding-window rank correlation between
// predicted and observed run times relaxes and ultimately disables
// pruning/biasing when the transferred model turns out to mislead on the
// target machine (see src/tuner/guard.hpp). --guard-floor F (default
// 0.2) and --guard-window N (default 25) tune the trust threshold and
// correlation window. Guard state transitions appear as "guard: ..."
// lines and as guard.state events in the JSONL log.
//
// Fault shaping: --faults takes either a bare rate R (historic spelling:
// transient failures at rate R) or a comma list of seeded channels, e.g.
// --faults "transient:0.05,hang:0.02,hang-stall:30" (see
// tuner::parse_fault_spec for every key). An injected hang parks on a
// cooperative cancellation token and is classified Timeout: collect's
// --timeout deadline ends it; elsewhere it stalls its hang-stall seconds
// unless a shutdown request ends it first. --slow S makes every
// evaluation sleep S seconds before returning its (unchanged) result — a
// deterministic slow-motion mode the chaos CI step uses to reliably
// SIGKILL a run mid-flight.
//
// Observability (any command):
//   --log-json events.jsonl    structured event log, one JSON object/line
//   --log-level debug|info|warn|error   event threshold (default info)
//   --metrics-out metrics.json counter/gauge/histogram snapshot at exit
//   --chrome-trace trace.json  Trace Event file for chrome://tracing or
//                              https://ui.perfetto.dev
//   --quiet                    suppress the end-of-run summary line
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/evaluator_factory.hpp"
#include "apps/registry.hpp"
#include "apps/tuning_config.hpp"
#include "obs/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/sink.hpp"
#include "obs/thread_pool_metrics.hpp"
#include "service/resilient_client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/signal.hpp"
#include "tuner/experiment.hpp"
#include "tuner/persistence.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"
#include "tuner/run_journal.hpp"
#include "tuner/run_status.hpp"
#include "tuner/similarity.hpp"
#include "tuner/transfer.hpp"

using namespace portatune;

namespace {

struct Args {
  std::string command;
  std::string problem = "LU";
  std::string source = "Westmere";
  std::string target = "Sandybridge";
  std::string machine = "Westmere";
  std::string from, out;
  std::string checkpoint, resume;
  std::string pairs;      ///< experiment: src:tgt[,src:tgt...]
  std::string run_dir;    ///< experiment: journaled run directory
  std::size_t ckpt_every = 10;
  std::size_t nmax = 100;
  double delta = 20.0;
  std::string faults;     ///< fault spec (rate or key:value list)
  double slow = 0.0;      ///< per-evaluation sleep, seconds (0 = off)
  std::size_t retries = 2;
  double timeout = 0.0;   ///< collect: per-attempt deadline, seconds
  std::size_t threads = 1;  ///< evaluation workers (0 = all hardware)
  std::uint64_t seed = 20160401;
  std::string log_json;     ///< JSONL event-log path ("" = off)
  std::string log_level = "info";
  std::string metrics_out;  ///< metrics snapshot path ("" = off)
  std::string chrome_trace; ///< Chrome trace path ("" = off)
  bool quiet = false;       ///< suppress the end-of-run summary
  bool guard = false;       ///< surrogate-trust guard on RS_p / RS_b
  double guard_floor = 0.2; ///< trust floor (GuardOptions::floor)
  std::size_t guard_window = 25;  ///< trust window (GuardOptions::window)
  /// Live-telemetry cadence of journaled runs and the daemon (metrics
  /// time-series tick, periodic flight-recorder dump, and the daemon's
  /// service-gauge refresh). 0 disables them — no thread, no files.
  double telemetry_every = 1.0;
  /// `status`: heartbeat age beyond which a run counts as dead.
  double stale_after = 10.0;
  /// `status --socket`: gap between the two stats samples rates are
  /// computed from.
  double interval = 0.5;
  /// `serve`: protocol requests slower than this emit a Warn event.
  double slow_request = 1.0;
  /// `serve`: sessions idle past this are checkpointed and evicted
  /// (0 = no lease, sessions live until closed or shutdown).
  double lease_seconds = 0.0;
  /// `serve`: per-connection request rate limit / burst (0 = unlimited).
  double client_rate = 0.0;
  double client_burst = 32.0;
  /// `call` / `status --socket`: overall per-call deadline for the
  /// resilient client's reconnect-and-retry loop.
  double deadline = 10.0;
  std::string socket;    ///< serve/call: Unix socket path
  /// `serve`: root of the service's persistent state (surrogate store,
  /// session checkpoints).
  std::string data_dir = "portatune_service";
  std::string request;   ///< call: one JSON request line

  /// The run directory the experiment/status command operates on
  /// (--resume doubles as the directory for resumed experiments).
  std::string effective_run_dir() const {
    return resume.empty() ? run_dir : resume;
  }
};

Args parse(int argc, char** argv) {
  PT_REQUIRE(argc >= 2, "usage: portatune_cli <list|collect|transfer|"
                        "experiment|status|similarity|serve|call> "
                        "[options]");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--quiet") {  // flag options take no value
      a.quiet = true;
      --i;
      continue;
    }
    if (key == "--guard") {
      a.guard = true;
      --i;
      continue;
    }
    PT_REQUIRE(i + 1 < argc, "option " + key + " is missing a value");
    const std::string value = argv[i + 1];
    // A numeric option's whole value must parse, or the usage error
    // names the option and its value.
    const auto number = [&](auto& field) {
      field = parse_number<std::remove_reference_t<decltype(field)>>(
          value, "option " + key);
    };
    if (key == "--problem") a.problem = value;
    else if (key == "--source") a.source = value;
    else if (key == "--target") a.target = value;
    else if (key == "--machine") a.machine = value;
    else if (key == "--from") a.from = value;
    else if (key == "--out") a.out = value;
    else if (key == "--checkpoint") a.checkpoint = value;
    else if (key == "--resume") a.resume = value;
    else if (key == "--ckpt-every") number(a.ckpt_every);
    else if (key == "--nmax") number(a.nmax);
    else if (key == "--delta") number(a.delta);
    else if (key == "--faults") a.faults = value;
    else if (key == "--slow") number(a.slow);
    else if (key == "--pairs") a.pairs = value;
    else if (key == "--run-dir") a.run_dir = value;
    else if (key == "--guard-floor") number(a.guard_floor);
    else if (key == "--guard-window") number(a.guard_window);
    else if (key == "--retries") number(a.retries);
    else if (key == "--timeout") number(a.timeout);
    else if (key == "--threads") number(a.threads);
    else if (key == "--seed") number(a.seed);
    else if (key == "--log-json") a.log_json = value;
    else if (key == "--log-level") a.log_level = value;
    else if (key == "--metrics-out") a.metrics_out = value;
    else if (key == "--chrome-trace") a.chrome_trace = value;
    else if (key == "--telemetry-every") number(a.telemetry_every);
    else if (key == "--stale-after") number(a.stale_after);
    else if (key == "--interval") number(a.interval);
    else if (key == "--slow-request") number(a.slow_request);
    else if (key == "--lease-seconds") number(a.lease_seconds);
    else if (key == "--client-rate") number(a.client_rate);
    else if (key == "--client-burst") number(a.client_burst);
    else if (key == "--deadline") number(a.deadline);
    else if (key == "--socket") a.socket = value;
    else if (key == "--data-dir") a.data_dir = value;
    else if (key == "--request") a.request = value;
    else throw Error("unknown option: " + key);
  }
  return a;
}

/// Owns the sinks requested on the command line for the duration of one
/// run: installs them as the default sink, and on finish() writes the
/// metrics snapshot and Chrome trace. finish() is idempotent and the
/// destructor invokes it too, so the artifacts are emitted on *every*
/// exit path — success, graceful shutdown (exit 3), and the error unwind
/// alike — and an exception cannot leave a dangling sink behind.
///
/// For journaled experiment runs the session additionally composes the
/// live-telemetry trio (unless --telemetry-every 0):
///   * a FlightRecorder ring joins the sink fan-out. The global log
///     level drops to Debug so the recorder sees every severity, and the
///     conventional sinks are re-filtered at the level the user asked
///     for — the hot path and the user-visible log are unchanged.
///   * a ScopedFlightRecorder arms the dump triggers (signals,
///     PT_REQUIRE, hang/abort sites).
///   * a MetricsSampler appends the time-series, and its tick piggybacks
///     a periodic recorder dump so even SIGKILL leaves a black box.
class ObsSession {
 public:
  explicit ObsSession(const Args& a) : args_(a) {
    // The directory the telemetry trio lives under: the run directory
    // for journaled experiments, the service data dir for the daemon
    // (whose "run" is its whole lifetime).
    const std::string telemetry_dir =
        a.command == "serve" ? a.data_dir : a.effective_run_dir();
    const bool telemetry =
        (a.command == "experiment" || a.command == "serve") &&
        !telemetry_dir.empty() && a.telemetry_every > 0.0;
    // The run directory must exist before any sink opens a file inside
    // it (the conventional layout puts events.jsonl there too).
    if (telemetry) ensure_directory(telemetry_dir);

    if (!a.log_json.empty())
      jsonl_ = std::make_unique<obs::JsonlSink>(a.log_json);
    if (!a.chrome_trace.empty())
      memory_ = std::make_unique<obs::MemorySink>();
    const obs::Severity user_level =
        obs::severity_from_string(a.log_level);

    std::vector<obs::EventSink*> fanout;
    if (telemetry) {
      recorder_ = std::make_unique<obs::FlightRecorder>();
      recorder_->set_dump_path(telemetry_dir + "/flight_recorder.jsonl");
      // The recorder must retain Debug/Info detail even when the user
      // filtered their log to warn/error: lower the global threshold and
      // push the user's threshold down into per-sink filters.
      for (obs::EventSink* sink :
           {static_cast<obs::EventSink*>(jsonl_.get()),
            static_cast<obs::EventSink*>(memory_.get())})
        if (sink != nullptr) {
          filters_.push_back(
              std::make_unique<obs::FilterSink>(sink, user_level));
          fanout.push_back(filters_.back().get());
        }
      fanout.push_back(recorder_.get());
      obs::set_log_level(obs::Severity::Debug);
    } else {
      if (jsonl_) fanout.push_back(jsonl_.get());
      if (memory_) fanout.push_back(memory_.get());
      obs::set_log_level(user_level);
    }
    if (fanout.size() == 1) {
      active_ = fanout.front();
    } else if (fanout.size() > 1) {
      tee_ = std::make_unique<obs::TeeSink>(fanout);
      active_ = tee_.get();
    }
    if (active_ != nullptr) obs::set_default_sink(active_);
    // Thread-pool telemetry rides along whenever any observability
    // output was asked for; with none, the pools stay fully dormant.
    if (active_ != nullptr || !a.metrics_out.empty())
      pool_metrics_ = std::make_unique<obs::ScopedThreadPoolMetrics>();
    if (telemetry) {
      scoped_recorder_ =
          std::make_unique<obs::ScopedFlightRecorder>(*recorder_);
      obs::MetricsSampler::Options so;
      so.path = telemetry_dir + "/" + std::string(obs::kTimeseriesFile);
      so.period_seconds = a.telemetry_every;
      so.on_tick = [] { obs::dump_flight_recorder("periodic"); };
      sampler_ = std::make_unique<obs::MetricsSampler>(std::move(so));
    }
  }

  ~ObsSession() {
    try {
      finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: observability artifacts not fully "
                           "written: %s\n",
                   e.what());
    }
    obs::set_default_sink(nullptr);  // never leave a dangling sink
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Write the requested output files after the command finished.
  /// Idempotent: the destructor calls it again harmlessly, which is what
  /// makes the artifacts survive the error-unwind path.
  void finish() {
    if (finished_) return;
    finished_ = true;
    // Stop the sampler before tearing the sinks down: its final tick
    // (and final recorder dump) must still see the full chain.
    sampler_.reset();
    obs::set_default_sink(nullptr);
    if (memory_) {
      const auto events = memory_->events();
      obs::write_chrome_trace(args_.chrome_trace, events);
      if (!args_.quiet)
        std::printf("wrote %zu trace events to %s\n", events.size(),
                    args_.chrome_trace.c_str());
    }
    if (!args_.metrics_out.empty()) {
      // Crash-safe like every persistence artifact: an interrupt during
      // the write never leaves a torn snapshot behind.
      atomic_write_file(
          args_.metrics_out,
          obs::MetricsRegistry::current().snapshot().to_json() + "\n");
      if (!args_.quiet)
        std::printf("wrote metrics to %s\n", args_.metrics_out.c_str());
    }
  }

 private:
  const Args& args_;
  std::unique_ptr<obs::JsonlSink> jsonl_;
  std::unique_ptr<obs::MemorySink> memory_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::vector<std::unique_ptr<obs::FilterSink>> filters_;
  std::unique_ptr<obs::TeeSink> tee_;
  std::unique_ptr<obs::ScopedThreadPoolMetrics> pool_metrics_;
  std::unique_ptr<obs::ScopedFlightRecorder> scoped_recorder_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  obs::EventSink* active_ = nullptr;
  bool finished_ = false;
};

void print_failure_summary(const tuner::SearchTrace& trace,
                           const tuner::ResilienceStats& stats) {
  const auto& fs = trace.failure_stats();
  if (fs.failures == 0 && stats.retries == 0) return;
  std::printf("resilience: %zu attempts, %zu failures "
              "(%zu transient, %zu deterministic, %zu timeout), "
              "%zu retries, %zu quarantined\n",
              fs.attempts, fs.failures, fs.transient, fs.deterministic,
              fs.timeouts, stats.retries, stats.quarantined);
  if (!trace.stop_reason().empty())
    std::printf("search aborted: %s\n", trace.stop_reason().c_str());
}

/// The one composition point for run configuration: every command that
/// builds evaluator stacks or search options starts from this validated
/// builder.
apps::TuningConfig tuning_config_from(const Args& a) {
  tuner::GuardOptions guard;
  guard.enabled = a.guard;
  guard.floor = a.guard_floor;
  guard.window = a.guard_window;
  apps::TuningConfig cfg;
  cfg.problem(a.problem)
      .machines(a.source, a.target)
      .max_evals(a.nmax)
      .seed(a.seed)
      .delta_percent(a.delta)
      .observe(true)
      .guard(std::move(guard));
  return cfg;
}

/// Fault profile from --faults / --slow, seeded like every channel.
tuner::FaultProfile fault_profile_from(const Args& a) {
  tuner::FaultProfile profile;
  if (!a.faults.empty()) profile = tuner::parse_fault_spec(a.faults);
  if (a.slow > 0.0) {
    // Deterministic slow motion: every evaluation sleeps a.slow seconds
    // and then returns its normal result, so the chaos CI step can kill
    // the run mid-flight without changing what the trace records.
    profile.delay_rate = 1.0;
    profile.delay_seconds = a.slow;
  }
  profile.seed = a.seed;
  return profile;
}

int cmd_list() {
  std::printf("problems: ");
  for (const auto& p : apps::all_problem_names()) std::printf("%s ", p.c_str());
  std::printf("\nmachines: ");
  for (const auto& m : sim::table2_machines())
    std::printf("%s ", m.name.c_str());
  std::printf("\n");
  return 0;
}

/// The exit-3 line of a search stopped by a shutdown request, with a
/// resume hint when a checkpoint was written.
void print_interrupted(const tuner::SearchTrace& trace,
                       const std::string& checkpoint) {
  std::printf("interrupted by shutdown request after %zu evaluations",
              trace.size());
  if (!checkpoint.empty())
    std::printf("; resume with --resume %s", checkpoint.c_str());
  std::printf("\n");
}

int cmd_collect(const Args& a) {
  // Decorator chain (wired by EvaluatorStack): backend -> faults ->
  // observer -> retry/timeout -> parallel. The observer sits inside the
  // resilient layer so it sees every raw attempt (including injected
  // faults), one event per attempt. The search only sees the outermost
  // layer.
  tuner::RetryPolicy retry;
  retry.max_attempts = a.retries + 1;
  retry.timeout_seconds = a.timeout;
  apps::TuningConfig cfg = tuning_config_from(a);
  cfg.machine(a.machine)
      .faults(fault_profile_from(a))
      .resilient(true)
      .retry(retry)
      .eval_threads(a.threads)
      .cancel(shutdown_token());
  apps::EvaluatorStack eval(cfg.stack_options());

  tuner::SearchOptions opt = cfg.search_options();

  tuner::SearchCheckpoint resumed;
  if (!a.resume.empty()) {
    resumed = tuner::load_checkpoint_csv(a.resume, eval.space());
    opt.resume = &resumed;
    std::printf("resuming from %s: %zu evaluations, %zu draws consumed\n",
                a.resume.c_str(), resumed.trace.size(), resumed.draws);
  }
  // The search hands its last snapshot (real draw watermark, quarantine)
  // to on_checkpoint as it returns; --out saves that one, so T_a is also
  // an exact resume point.
  tuner::SearchCheckpoint last;
  if (!a.checkpoint.empty()) opt.checkpoint_every = a.ckpt_every;
  if (!a.checkpoint.empty() || !a.out.empty())
    opt.on_checkpoint = [&](const tuner::SearchCheckpoint& snapshot) {
      if (!a.checkpoint.empty())
        tuner::save_checkpoint_csv(a.checkpoint, snapshot, eval.space());
      last = snapshot;
    };

  const auto trace = tuner::random_search(eval, opt);
  std::printf("collected %zu evaluations of %s on %s (best %.4f s)\n",
              trace.size(), a.problem.c_str(), a.machine.c_str(),
              trace.best_seconds());
  print_failure_summary(trace, eval.resilient_layer()->stats());
  if (!a.checkpoint.empty())
    std::printf("saved checkpoint to %s\n", a.checkpoint.c_str());
  if (!a.out.empty()) {
    tuner::save_checkpoint_csv(a.out, last, eval.space());
    std::printf("saved T_a to %s\n", a.out.c_str());
  }
  if (!a.quiet && !trace.empty()) {
    const auto& fs = trace.failure_stats();
    std::printf("summary: best=%s best_seconds=%.6g evals=%zu "
                "failures=%zu/%zu overhead_seconds=%.3g\n",
                eval.space().describe(trace.best_config()).c_str(),
                trace.best_seconds(), trace.size(), fs.failures,
                fs.attempts, fs.overhead_seconds);
  }
  if (trace.stop_reason() == tuner::kCancelledStopReason) {
    print_interrupted(trace, a.checkpoint);
    return 3;
  }
  return 0;
}

int cmd_transfer(const Args& a) {
  // Per-evaluation telemetry, tagged by role: eval.source.* / eval.target.*
  // counters and one event per evaluation. Both stacks pick up --threads.
  // They have no fault or resilient layer, so --faults, --retries and
  // --timeout (collect's resilient deadline) do not apply here.
  apps::TuningConfig cfg = tuning_config_from(a);
  cfg.eval_threads(a.threads).cancel(shutdown_token());
  const auto source = cfg.make_stack(apps::StackRole::Source);
  const auto target = cfg.make_stack(apps::StackRole::Target);

  if (!a.from.empty()) {
    // Reuse a previously collected T_a: fit the surrogate and run RS_b
    // exactly as the experiment's biased phase would.
    const auto ta = tuner::load_checkpoint_csv(a.from, source->space()).trace;
    std::printf("loaded T_a: %zu rows from %s\n", ta.size(),
                a.from.c_str());
    tuner::SearchOptions opt = cfg.search_options();
    opt.forest.seed = opt.seed;
    const auto model = tuner::fit_surrogate(ta, source->space(), opt.forest);
    opt.guard.refit_source = &ta;
    opt.guard.refit_forest = opt.forest;
    opt.guard.on_transition = [](const tuner::GuardTransition& tr) {
      std::printf("guard: RS_b %s->%s @%zu (%s, trust=%.3f)\n",
                  to_string(tr.from), to_string(tr.to), tr.evals,
                  tr.reason.c_str(), tr.trust);
    };
    const auto biased = tuner::biased_random_search(*target, *model, opt);
    if (biased.stop_reason() == tuner::kCancelledStopReason) {
      print_interrupted(biased, "");
      return 3;
    }
    std::printf("RS_b on %s: best %.4f s (at %.1f s of search)\n",
                a.target.c_str(), biased.best_seconds(),
                biased.time_to_best());
    std::printf("best configuration: %s\n",
                target->space().describe(biased.best_config()).c_str());
    return 0;
  }

  const auto r = tuner::run_transfer_experiment(*source, *target,
                                                cfg.experiment_settings());
  if (r.interrupted) {
    std::printf("interrupted by shutdown request (transfer runs are not "
                "journaled; use the experiment command for resumable "
                "runs)\n");
    return 3;
  }
  std::printf("%s: %s -> %s\n", a.problem.c_str(), a.source.c_str(),
              a.target.c_str());
  std::printf("correlation: pearson %.3f spearman %.3f\n", r.pearson,
              r.spearman);
  const auto row = [](const char* name, const tuner::Speedups& sp) {
    std::printf("  %-6s Prf.Imp %.2f  Srh.Imp %.2f%s\n", name,
                sp.performance, sp.search,
                sp.successful() ? "  (successful)" : "");
  };
  row("RS_p", r.pruned_speedup);
  row("RS_b", r.biased_speedup);
  row("RS_pf", r.pruned_mf_speedup);
  row("RS_bf", r.biased_mf_speedup);
  if (r.failures.failures > 0)
    std::printf("failures: %zu of %zu attempts "
                "(%zu transient, %zu deterministic, %zu timeout)\n",
                r.failures.failures, r.failures.attempts,
                r.failures.transient, r.failures.deterministic,
                r.failures.timeouts);
  for (const auto& g : r.guard_log) std::printf("guard: %s\n", g.c_str());
  for (const auto& aborted : r.aborted_searches)
    std::printf("aborted: %s\n", aborted.c_str());
  return 0;
}

int cmd_experiment(const Args& a) {
  PT_REQUIRE(!a.pairs.empty(),
             "experiment requires --pairs src:tgt[,src:tgt...]");
  tuner::JournaledRunOptions jopt;
  jopt.run_dir = a.effective_run_dir();
  jopt.resume = !a.resume.empty();
  jopt.threads = a.threads;
  jopt.rs_checkpoint_every = a.ckpt_every;
  jopt.cancel = shutdown_token();
  PT_REQUIRE(!jopt.run_dir.empty(),
             "experiment requires --run-dir <dir> (or --resume <dir>)");

  std::vector<tuner::ExperimentJob> jobs;
  std::string rest = a.pairs;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string pair = rest.substr(0, comma);
    rest = comma == std::string::npos ? std::string()
                                      : rest.substr(comma + 1);
    const auto colon = pair.find(':');
    PT_REQUIRE(colon != std::string::npos && colon > 0 &&
                   colon + 1 < pair.size(),
               "malformed --pairs entry '" + pair + "' (want src:tgt)");
    const std::string src = pair.substr(0, colon);
    const std::string tgt = pair.substr(colon + 1);

    // One builder per cell; the journaled runner owns cancellation and
    // cross-cell parallelism, so the cell stacks stay single-threaded
    // with no cancel token of their own.
    apps::TuningConfig cell = tuning_config_from(a);
    cell.machines(src, tgt).faults(fault_profile_from(a));

    tuner::ExperimentJob job;
    job.label = a.problem + " " + src + "->" + tgt;
    job.make_source = [cell]() -> tuner::EvaluatorPtr {
      return apps::make_evaluator_stack(
          cell.stack_options(apps::StackRole::Source));
    };
    job.make_target = [cell]() -> tuner::EvaluatorPtr {
      return apps::make_evaluator_stack(
          cell.stack_options(apps::StackRole::Target));
    };
    job.settings = cell.experiment_settings();
    jobs.push_back(std::move(job));
  }

  tuner::JournaledRunSummary sum;
  const auto results =
      tuner::run_transfer_experiments_journaled(jobs, jopt, &sum);
  std::printf("journaled run %s: %zu cells (%zu restored, %zu completed "
              "this run)\n",
              jopt.run_dir.c_str(), sum.cells_total, sum.cells_restored,
              sum.cells_completed);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (r.source_rs.empty()) continue;  // interrupted before this cell
    std::printf("  %-28s RS_p %.2f/%.2f  RS_b %.2f/%.2f  "
                "pearson %.3f%s\n",
                jobs[i].label.c_str(), r.pruned_speedup.performance,
                r.pruned_speedup.search, r.biased_speedup.performance,
                r.biased_speedup.search, r.pearson,
                r.interrupted ? "  (interrupted)" : "");
  }
  if (sum.interrupted) {
    std::printf("interrupted by shutdown request; resume with: "
                "portatune_cli experiment --resume %s ...\n",
                jopt.run_dir.c_str());
    return 3;
  }
  return 0;
}

/// `status --socket`: render a live view of a running daemon from two
/// `stats` samples taken `--interval` seconds apart — counts and
/// percentiles from the second, rates from the delta.
int cmd_status_socket(const Args& a) {
  obs::json::Value first, second;
  // The resilient client rides out transient hiccups (reconnects and
  // retries until --deadline); the catch below is for a daemon that is
  // genuinely gone — including one that dies *between* the two samples.
  // Catch std::exception, not just Error: a daemon that vanishes
  // mid-conversation can surface as a parse error on a torn reply, and
  // a monitoring command must report "dead", never crash.
  try {
    service::ResilientClientOptions ro;
    ro.call_deadline_seconds = a.deadline;
    service::ResilientClient client(a.socket, ro);
    first = obs::json::Value::parse(client.call("{\"op\":\"stats\"}"));
    std::this_thread::sleep_for(std::chrono::duration<double>(
        a.interval > 0.0 ? a.interval : 0.0));
    second = obs::json::Value::parse(client.call("{\"op\":\"stats\"}"));
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: tuning service unreachable on %s: %s\n"
                 "hint: the socket is dead — the daemon exited or was "
                 "restarted on another path; start one with "
                 "'portatune_cli serve --socket %s'\n",
                 a.socket.c_str(), e.what(), a.socket.c_str());
    return 2;
  }
  const obs::json::Value* ok = second.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    std::fprintf(stderr, "error: stats op failed: %s\n",
                 second.dump().c_str());
    return 2;
  }
  const obs::json::Value& server = second.at("server");
  std::printf("tuning service on %s\n", a.socket.c_str());
  std::printf("  pid %.0f  uptime %.1fs  requests %.0f  sessions open "
              "%.0f  store entries %.0f\n",
              server.at("pid").as_number(),
              server.at("uptime_seconds").as_number(),
              server.at("requests").as_number(),
              server.at("sessions_open").as_number(),
              server.at("store_entries").as_number());
  const obs::json::Value& cache = server.at("cache");
  std::printf("  cache: %.0f hits  %.0f misses  %.0f entries\n",
              cache.at("hits").as_number(), cache.at("misses").as_number(),
              cache.at("size").as_number());

  const auto counter = [](const obs::json::Value& stats,
                          const std::string& name) -> double {
    const obs::json::Value* counters = stats.at("metrics").find("counters");
    const obs::json::Value* v =
        counters != nullptr ? counters->find(name) : nullptr;
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  const obs::json::Value* histograms =
      second.at("metrics").find("histograms");
  std::printf("  %-12s %10s %10s %9s %9s %9s %8s\n", "op", "count",
              "rate/s", "p50 ms", "p95 ms", "p99 ms", "errors");
  const std::string prefix = "server.op.", suffix = ".latency";
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, h] : histograms->as_object()) {
      if (name.rfind(prefix, 0) != 0 ||
          name.size() <= prefix.size() + suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
        continue;
      const std::string op = name.substr(
          prefix.size(), name.size() - prefix.size() - suffix.size());
      const double count = counter(second, prefix + op + ".count");
      if (count == 0.0) continue;
      const double rate =
          a.interval > 0.0
              ? (count - counter(first, prefix + op + ".count")) /
                    a.interval
              : 0.0;
      std::printf("  %-12s %10.0f %10.1f %9.3f %9.3f %9.3f %8.0f\n",
                  op.c_str(), count, rate,
                  h.at("p50").as_number() * 1e3,
                  h.at("p95").as_number() * 1e3,
                  h.at("p99").as_number() * 1e3,
                  counter(second, prefix + op + ".errors"));
    }
  }
  return 0;
}

int cmd_status(const Args& a) {
  if (!a.socket.empty()) return cmd_status_socket(a);
  PT_REQUIRE(!a.effective_run_dir().empty(),
             "status requires --run-dir <dir> or --socket <path>");
  // A directory without a journal is not a run directory — report that
  // plainly (exit 2, like a dead run) instead of unwinding through the
  // journal parser with a confusing read error.
  if (!tuner::RunJournal::exists(a.effective_run_dir())) {
    std::fprintf(stderr,
                 "error: %s is not a run directory (no journal.csv); "
                 "expected a directory created by "
                 "'portatune_cli experiment --run-dir'\n",
                 a.effective_run_dir().c_str());
    return 2;
  }
  // Render into a buffer first: a concurrent writer can't interleave
  // with our reads mid-line, and a throwing parse leaves no half-report.
  std::ostringstream os;
  const tuner::RunLiveness liveness =
      tuner::render_run_status(os, a.effective_run_dir(), a.stale_after);
  std::fputs(os.str().c_str(), stdout);
  return liveness == tuner::RunLiveness::Dead ? 2 : 0;
}

int cmd_serve(const Args& a) {
  PT_REQUIRE(!a.socket.empty(), "serve requires --socket <path>");
  service::TuningServiceOptions so;
  so.data_dir = a.data_dir;
  service::TuningService svc(so);
  if (!a.quiet) {
    std::printf("tuning service on %s (data dir %s, %zu stored "
                "surrogate%s)\n",
                a.socket.c_str(), a.data_dir.c_str(), svc.store().size(),
                svc.store().size() == 1 ? "" : "s");
    std::fflush(stdout);
  }
  service::ServeOptions sv;
  sv.status_every_seconds = a.telemetry_every;
  sv.protocol.slow_request_seconds = a.slow_request;
  // Exactly-once survives restarts: the reply cache lives next to the
  // rest of the service state and is reloaded by the next serve.
  if (!a.data_dir.empty())
    sv.protocol.state_path = a.data_dir + "/protocol_state.json";
  sv.lease_seconds = a.lease_seconds;
  sv.client_rate_limit = a.client_rate;
  sv.client_rate_burst = a.client_burst;
  const int rc =
      service::serve_unix_socket(svc, a.socket, shutdown_token(), sv);
  if (rc == 3)
    std::printf("interrupted by shutdown request; open sessions "
                "checkpointed under %s and can be resumed\n",
                a.data_dir.c_str());
  return rc;
}

int cmd_call(const Args& a) {
  PT_REQUIRE(!a.socket.empty(), "call requires --socket <path>");
  PT_REQUIRE(!a.request.empty(), "call requires --request '<json>'");
  // Resilient one-shot: reconnect-and-retry until --deadline, with a
  // rid stamped on mutating ops so a retry after a torn reply replays
  // the server's cached answer instead of executing twice.
  service::ResilientClientOptions ro;
  ro.call_deadline_seconds = a.deadline;
  service::ResilientClient client(a.socket, ro);
  const std::string reply = client.call(a.request);
  std::printf("%s\n", reply.c_str());
  const obs::json::Value v = obs::json::Value::parse(reply);
  const obs::json::Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool() ? 0 : 1;
}

int cmd_similarity(const Args& a) {
  auto source = apps::make_simulated_evaluator(a.problem, a.source);
  auto target = apps::make_simulated_evaluator(a.problem, a.target);
  const auto rep = tuner::measure_similarity(*source, *target);
  std::printf("%s: %s vs %s (%zu probes)\n", a.problem.c_str(),
              a.source.c_str(), a.target.c_str(), rep.probes);
  std::printf("  pearson %.3f  spearman %.3f  kendall %.3f\n", rep.pearson,
              rep.spearman, rep.kendall);
  std::printf("  top-20%% overlap %.2f  log-ratio dispersion %.3f\n",
              rep.top_overlap, rep.log_ratio_dispersion);
  std::printf("  advice: %s\n", to_string(tuner::advise(rep)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    // SIGINT/SIGTERM request a graceful shutdown (cooperative
    // cancellation + flush); a second signal force-exits.
    install_shutdown_signal_handler();
    ObsSession obs_session(a);
    int rc = 1;
    if (a.command == "list") rc = cmd_list();
    else if (a.command == "collect") rc = cmd_collect(a);
    else if (a.command == "transfer") rc = cmd_transfer(a);
    else if (a.command == "experiment") rc = cmd_experiment(a);
    else if (a.command == "status") rc = cmd_status(a);
    else if (a.command == "serve") rc = cmd_serve(a);
    else if (a.command == "call") rc = cmd_call(a);
    else if (a.command == "similarity") rc = cmd_similarity(a);
    else throw Error("unknown command: " + a.command);
    obs_session.finish();
    return rc;
  } catch (const std::exception& e) {
    // portatune::Error and anything else: an error line and exit 1,
    // never an abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
