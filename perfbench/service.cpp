// The service-mixed workload: a `portatune_cli serve` daemon on a fresh
// data dir whose surrogate store is seeded during set-up, driven in a
// closed loop by two connections of this process (fewer if nproc is 1),
// one thread each.
//
// Each connection cycles through sessions. A warm session opens on
// Sandybridge or Power7, which the store's Westmere entries admit (store
// refit plus an RS_b-ranked pool), then takes the loadgen's steps with a
// suggest + report round trip after every third; the report carries a
// run time the client measured itself on a local simulated evaluator.
// A cold session opens ATAX on X-Gene, which advise() keeps cold, takes one
// suggest and closes without evaluating: a closed session with
// evaluations publishes its trace, and an X-Gene entry would warm every
// later X-Gene open. Sessions have seeds of their own but share (problem,
// machine), so the eval cache serves hits (the fingerprint probes, pool
// heads ranked by the same store model) beside new measurements.
//
// Checks: every reply ok, every warm/cold decision as designed, and the
// client tallies equal the server's server.op.<op>.count deltas exactly.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/registry.hpp"
#include "apps/tuning_config.hpp"
#include "common.hpp"
#include "obs/json.hpp"
#include "service/resilient_client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace apps = portatune::apps;
namespace service = portatune::service;
namespace tuner = portatune::tuner;
using portatune::obs::json::Value;

const char* const kProblems[] = {"LU", "ATAX"};
const char* const kStoreMachine = "Westmere";
const char* const kWarmMachines[] = {"Sandybridge", "Power7"};

/// One session of the mix. A connection walks kMix in order from an offset
/// the seed picks, so every run has the same proportions: three warm
/// sessions to one cold, as in Table IV, where 12 of the 48 cells target
/// X-Gene. The store's 16-probe fingerprints admit Westmere for LU on
/// X-Gene but not for ATAX, so cold sessions are ATAX on X-Gene.
struct Kind {
  const char* problem;
  const char* machine;
  bool cold;
};
const Kind kMix[] = {{"LU", "Sandybridge", false},  {"ATAX", "Power7", false},
                     {"ATAX", "X-Gene", true},      {"ATAX", "Sandybridge", false},
                     {"LU", "Power7", false},       {"LU", "Sandybridge", false},
                     {"ATAX", "X-Gene", true},      {"ATAX", "Power7", false}};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
/// A warm session's shape is the loadgen's: its default step width and
/// budget, with the 10 steps of the 4 x 10 loadgen run the benchmark
/// replaces.
constexpr std::size_t kSteps = 10;
constexpr std::size_t kStepN = 2;
constexpr std::size_t kMaxEvals = 40;
constexpr int kSetups = 25;
/// Two connections keep the daemon's queue busy: the client-side latencies
/// include waits behind the other connection's open. Each open fans its
/// forest fit and pool prediction over the daemon's nproc pool threads, so
/// every further client thread competes with them for the cores, and on a
/// shared host the queueing tails then follow the neighbours' load.
constexpr std::size_t kConnections = 2;
/// The rates are medians over this many equal windows of the run.
constexpr std::size_t kWindows = 10;
/// Closed sessions stay in the daemon's memory until the lease sweep drops
/// them; a short lease keeps a long run's footprint flat.
const char* const kLeaseSeconds = "1";
const char* const kTrackedOps[] = {"open", "step", "suggest", "report", "close"};

/// One daemon on its own fresh data dir; stopped (and reaped) on
/// destruction.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& dir) : dir_(dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    seed_store(opt);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, (dir + "/serve.log").c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<std::string> args = {opt.cli, "serve", "--socket", socket(),
                                     "--data-dir", dir + "/data",
                                     "--telemetry-every", "0",
                                     "--lease-seconds", kLeaseSeconds,
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, opt.cli.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + opt.cli);
    // Poll every millisecond until the daemon answers (the resilient
    // client's jittered backoff would add its own noise to setup_s).
    for (const double t0 = now();;) {
      try {
        service::ServiceClient client(socket());
        client.call("{\"op\":\"stats\"}");
        break;
      } catch (const std::exception& e) {
        if (now() - t0 > 30.0) {
          stop();
          throw std::runtime_error(std::string("daemon never answered: ") + e.what());
        }
        ::usleep(1000);
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string socket() const { return dir_ + "/s.sock"; }
  double peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

  void stop() {
    if (pid_ <= 0) return;
    try {
      service::call_unix_socket(socket(), "{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
      // Already gone; reap below.
    }
    int status = 0;
    for (int i = 0; i < 1000 && ::waitpid(pid_, &status, WNOHANG) == 0; ++i)
      ::usleep(10000);
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  /// Publish one Westmere trace per problem into the store, in process.
  void seed_store(const Options& opt) {
    service::TuningServiceOptions so;
    so.data_dir = dir_ + "/data";
    service::TuningService svc(so);
    for (const char* problem : kProblems) {
      apps::TuningConfig cfg;
      cfg.problem(problem).machine(kStoreMachine).max_evals(100).seed(opt.seed);
      service::SessionHandle& h = svc.open(std::string("store-") + problem, cfg);
      h.step(100);
      h.close();
    }
  }

  std::string dir_;
  pid_t pid_ = -1;
};

/// (completion time on now(), amount of work) of each unit of work.
using Done = std::vector<std::pair<double, double>>;

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Client-side tallies of one connection (merged after the run).
struct Tally {
  std::map<std::string, std::vector<double>> latency;  ///< seconds per op
  std::vector<double> session;  ///< open..close of each warm session
  Done ops_done, sessions_done;  ///< each op, each warm session
  Done evals_done;               ///< each step, with the configs it evaluated
  std::size_t opens = 0, warm_opens = 0, cycles = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void merge(const Tally& o) {
    for (const auto& [op, v] : o.latency) append(latency[op], v);
    append(session, o.session);
    append(ops_done, o.ops_done);
    append(sessions_done, o.sessions_done);
    append(evals_done, o.evals_done);
    opens += o.opens;
    warm_opens += o.warm_opens;
    cycles += o.cycles;
    failed += o.failed;
    append(errors, o.errors);
  }
  std::size_t ops() const {
    std::size_t n = 0;
    for (const auto& [op, v] : latency) n += v.size();
    return n;
  }
};

std::string quoted(const std::string& s) {
  return "\"" + portatune::obs::json::escape(s) + "\"";
}

/// One connection's closed loop.
class Worker {
 public:
  Worker(const Options& opt, const std::string& socket, std::size_t index)
      : opt_(opt), index_(index) {
    service::ResilientClientOptions ro;
    ro.call_deadline_seconds = 60.0;
    ro.client_id = "pb" + std::to_string(opt.seed) + "w" + std::to_string(index);
    ro.jitter_seed = opt.seed + index;
    client_ = std::make_unique<service::ResilientClient>(socket, ro);
    // The client's own "measurement" backends, built before timing.
    for (const char* p : kProblems)
      for (const char* m : kWarmMachines)
        local_[{p, m}] = apps::make_simulated_evaluator(p, m);
  }

  /// Run sessions until `more(cycles_done)` is false.
  template <typename More>
  void run(More more) {
    for (; more(tally.cycles); ++tally.cycles) session(tally.cycles);
  }

  Tally tally;

 private:
  Value call(const std::string& op, const std::string& line) {
    const double t0 = now();
    const std::string reply = client_->call(line);
    const double t1 = now();
    tally.latency[op].push_back(t1 - t0);
    tally.ops_done.push_back({t1, 1.0});
    Value v = Value::parse(reply);
    const Value* ok = v.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      ++tally.failed;
      tally.errors.push_back(op + " failed: " + reply.substr(0, 200));
    }
    return v;
  }

  void session(std::size_t k) {
    const Kind& kind = kMix[(opt_.seed + 3 * index_ + k) % kMixSize];
    const bool cold = kind.cold;
    const std::string problem = kind.problem, machine = kind.machine;
    const std::uint64_t seed = opt_.seed * 1000000 + index_ * 100000 + k;
    const std::string id = "w" + std::to_string(index_) + "-" + std::to_string(k);
    const std::string sid = quoted(id);

    const double t0 = now();
    const Value open = call("open", "{\"op\":\"open\",\"id\":" + sid +
                                        ",\"problem\":" + quoted(problem) +
                                        ",\"machine\":" + quoted(machine) +
                                        ",\"max_evals\":" + std::to_string(kMaxEvals) +
                                        ",\"seed\":" + std::to_string(seed) + "}");
    ++tally.opens;
    const Value* warm = open.find("warm");
    const bool is_warm = warm != nullptr && warm->is_bool() && warm->as_bool();
    if (is_warm) ++tally.warm_opens;
    if (is_warm == cold)
      tally.errors.push_back(id + " on " + problem + "/" + machine +
                             " opened " + (is_warm ? "warm from " : "cold") +
                             (is_warm ? open.at("warm_source").as_string() : ""));

    double last_evals = 0;
    if (cold) {
      call("suggest", "{\"op\":\"suggest\",\"id\":" + sid + ",\"n\":2}");
    } else {
      for (std::size_t i = 0; i < kSteps; ++i) {
        const Value step = call("step", "{\"op\":\"step\",\"id\":" + sid +
                                            ",\"n\":" + std::to_string(kStepN) + "}");
        if (const Value* e = step.find("evaluated"))
          tally.evals_done.push_back({now(), e->as_number()});
        if (const Value* e = step.find("evals")) last_evals = e->as_number();
        if (i % 3 == 2) report_one(problem, machine, sid);
      }
    }
    const Value close = call("close", "{\"op\":\"close\",\"id\":" + sid + "}");
    if (!cold) {
      const double t1 = now();
      tally.session.push_back(t1 - t0);
      tally.sessions_done.push_back({t1, 1.0});
    }
    const Value* evals = close.find("evals");
    if (evals == nullptr || evals->as_number() < last_evals)
      tally.errors.push_back(id + " closed with fewer evaluations than it took");
  }

  /// suggest one configuration, measure it locally, report it.
  void report_one(const std::string& problem, const std::string& machine,
                  const std::string& sid) {
    const Value s = call("suggest", "{\"op\":\"suggest\",\"id\":" + sid + ",\"n\":1}");
    const Value* configs = s.find("configs");
    if (configs == nullptr || !configs->is_array() || configs->as_array().empty())
      return;
    const Value& config = configs->as_array().front();
    tuner::ParamConfig c;
    for (const Value& idx : config.as_array())
      c.push_back(static_cast<int>(idx.as_number()));
    const tuner::EvalResult r = local_.at({problem, machine})->evaluate(c);
    if (!r.ok) return;  // an infeasible suggestion is simply not reported
    char seconds[40];
    std::snprintf(seconds, sizeof(seconds), "%.17g", r.seconds);
    call("report", "{\"op\":\"report\",\"id\":" + sid + ",\"config\":" +
                       config.dump() + ",\"seconds\":" + seconds + "}");
  }

  const Options& opt_;
  std::size_t index_;
  std::unique_ptr<service::ResilientClient> client_;
  std::map<std::pair<std::string, std::string>, tuner::EvaluatorPtr> local_;
};

Value stats(const std::string& socket) {
  return Value::parse(service::call_unix_socket(socket, "{\"op\":\"stats\"}"));
}

double counter(const Value& stats, const std::string& name) {
  const Value* v = stats.at("metrics").at("counters").find(name);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// One measured stretch of traffic against `d`.
struct Run {
  Tally tally;
  double start = 0.0, wall = 0.0;
  std::vector<std::size_t> cycles;  ///< per worker
  Value before, after;
  std::size_t before_bytes = 0;     ///< the before-stats reply itself
};

/// Drive `d` with min(nproc, kConnections) workers. Worker w runs sessions
/// while `more(w, cycles_done, elapsed)` holds, then the server counters
/// are cross-checked against the client tallies.
template <typename More>
Run drive(const Options& opt, Daemon& d, More more, Report& rep) {
  Run run;
  const std::size_t connections = std::min(opt.threads, kConnections);
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t w = 0; w < connections; ++w)
    workers.push_back(std::make_unique<Worker>(opt, d.socket(), w));
  const std::string before = service::call_unix_socket(d.socket(), "{\"op\":\"stats\"}");
  run.before = Value::parse(before);
  run.before_bytes = before.size() + 1;

  std::barrier start(static_cast<std::ptrdiff_t>(connections) + 1);
  double t0 = 0.0;
  std::vector<std::thread> threads;
  std::vector<std::string> crashes(connections);
  for (std::size_t w = 0; w < connections; ++w)
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      try {
        workers[w]->run([&](std::size_t k) { return more(w, k, now() - t0); });
      } catch (const std::exception& e) {
        crashes[w] = e.what();
      }
    });
  t0 = now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  run.start = t0;
  run.wall = now() - t0;
  run.after = stats(d.socket());

  for (std::size_t w = 0; w < connections; ++w) {
    if (!crashes[w].empty()) rep.error("worker " + std::to_string(w) + ": " + crashes[w]);
    run.cycles.push_back(workers[w]->tally.cycles);
    run.tally.merge(workers[w]->tally);
  }
  for (const std::string& e : run.tally.errors) rep.error(e);
  rep.attempted += run.tally.ops();
  rep.failed += run.tally.failed;
  for (const char* op : kTrackedOps) {
    const std::string name = std::string("server.op.") + op + ".count";
    const double delta = counter(run.after, name) - counter(run.before, name);
    const double sent = static_cast<double>(run.tally.latency[op].size());
    if (delta != sent)
      rep.error(std::string("server counted ") + std::to_string(delta) + " " +
                op + " ops, clients sent " + std::to_string(sent));
  }
  return run;
}

std::vector<double> light(const Tally& t) {
  std::vector<double> v;
  for (const char* op : {"suggest", "report"})
    if (const auto it = t.latency.find(op); it != t.latency.end())
      v.insert(v.end(), it->second.begin(), it->second.end());
  return v;
}

const Value* histogram(const Value& stats, const std::string& name) {
  return stats.at("metrics").at("histograms").find(name);
}

void per_layer(const Run& run, double overhead, Report& rep) {
  const Tally& t = run.tally;
  double step_server_p50 = 0, light_server_p99 = 0;
  for (const char* op : kTrackedOps) {
    const std::string name = std::string("server.op.") + op + ".latency";
    const Value* h = histogram(run.after, name);
    double p50 = 0, p99 = 0, count = 0;
    if (h != nullptr) {
      p50 = h->at("p50").as_number();
      p99 = h->at("p99").as_number();
      count = h->at("count").as_number();
    }
    rep.samples.push_back({name, static_cast<std::size_t>(count)});
    rep.add(std::string("service.op.") + op + ".server_ms_p50", p50 * 1e3, "ms");
    rep.add(std::string("service.op.") + op + ".server_ms_p99", p99 * 1e3, "ms");
    if (std::string(op) == "step") step_server_p50 = p50;
    // The mixture's p99 is at most its components' largest p99.
    if (std::string(op) == "suggest" || std::string(op) == "report")
      light_server_p99 = std::max(light_server_p99, p99);
  }
  const auto step = t.latency.at("step");
  rep.add("service.step.wait_ms_p50", (quantile(step, 0.50) - step_server_p50) * 1e3, "ms");
  rep.add("service.light.wait_ms_p99",
          (quantile(light(t), 0.99) - light_server_p99) * 1e3, "ms");

  const double hits = counter(run.after, "service.cache.hits") -
                      counter(run.before, "service.cache.hits");
  const double misses = counter(run.after, "service.cache.misses") -
                        counter(run.before, "service.cache.misses");
  rep.samples.push_back({"service.cache.lookups", static_cast<std::size_t>(hits + misses)});
  rep.add("service.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "ratio");
  rep.samples.push_back({"service.store.opens", t.opens});
  rep.add("service.store.warm_ratio",
          static_cast<double>(t.warm_opens) / static_cast<double>(std::max<std::size_t>(1, t.opens)),
          "ratio");
  const double bytes = counter(run.after, "server.bytes_in") -
                       counter(run.before, "server.bytes_in") +
                       counter(run.after, "server.bytes_out") -
                       counter(run.before, "server.bytes_out") -
                       static_cast<double>(run.before_bytes);
  rep.add("service.bytes_per_op", bytes / static_cast<double>(t.ops()), "B");
  rep.add("obs.trace_overhead_ratio", overhead, "ratio");
}

/// Work per second as the median over kWindows equal windows of the run,
/// so a burst of host noise moves one window, not the rate.
double windowed_rate(const Run& run, const Done& done) {
  const double width = run.wall / kWindows;
  std::vector<double> work(kWindows, 0.0);
  for (const auto& [t, amount] : done)
    work[std::min(kWindows - 1, static_cast<std::size_t>((t - run.start) / width))] += amount;
  for (double& w : work) w /= width;
  return median(work);
}

void end_to_end(const Run& run, Report& rep) {
  const Tally& t = run.tally;
  rep.add("cells_per_s", windowed_rate(run, t.sessions_done), "1/s");
  rep.percentile("cell_ms_p50", t.session, 0.50, 1e3, "ms");
  rep.percentile("cell_ms_p90", t.session, 0.90, 1e3, "ms");
  rep.add("evals_per_s", windowed_rate(run, t.evals_done), "1/s");
  rep.add("ops_per_s", windowed_rate(run, t.ops_done), "1/s");
  rep.percentile("step_ms_p50", t.latency.at("step"), 0.50, 1e3, "ms");
  rep.percentile("step_ms_p99", t.latency.at("step"), 0.99, 1e3, "ms");
  rep.percentile("open_ms_p50", t.latency.at("open"), 0.50, 1e3, "ms");
  rep.percentile("open_ms_p90", t.latency.at("open"), 0.90, 1e3, "ms");
  rep.percentile("light_ms_p99", light(t), 0.99, 1e3, "ms");
}

}  // namespace

Report run_service(const Options& opt) {
  if (opt.cli.empty()) throw std::runtime_error("service-mixed needs --cli");
  Report rep;
  // Set-up: fresh data dir, seeded store, daemon up. Repeated; the last
  // daemon serves the run.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    const double t0 = now();
    daemon = std::make_unique<Daemon>(opt, "svc" + std::to_string(i));
    setups.push_back(now() - t0);
  }

  const auto timed = [](double seconds) {
    return [seconds](std::size_t, std::size_t, double elapsed) {
      return elapsed < seconds;
    };
  };
  if (!opt.trace) {
    const Run run = drive(opt, *daemon, timed(opt.seconds), rep);
    end_to_end(run, rep);
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mb", daemon->peak_rss_mb(), "MiB");
    return rep;
  }

  // Traced run: half the time on this daemon, then the same sessions per
  // worker on a second fresh one, whose stats deltas and client tallies
  // give the per-layer numbers. The daemon's telemetry is always on and
  // both runs poll stats only outside their timed window, so the overhead
  // ratio compares two identical runs: it covers the stats polling only.
  const Run plain = drive(opt, *daemon, timed(opt.seconds / 2), rep);
  daemon.reset();
  daemon = std::make_unique<Daemon>(opt, "svc-traced");
  const Run traced = drive(
      opt, *daemon,
      [&](std::size_t w, std::size_t k, double) { return k < plain.cycles[w]; },
      rep);
  per_layer(traced, traced.wall / plain.wall - 1.0, rep);
  return rep;
}

}  // namespace perfbench
