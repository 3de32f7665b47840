// TuningService session lifecycle: open/step/suggest/report/checkpoint/
// close, crash-safe resume, the shared EvalCache across concurrent
// sessions, and the warm-start payoff (a session on a known machine
// reaches the cold best in fewer evaluations).
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "tuner/persistence.hpp"

namespace portatune::service {
namespace {

std::string fresh_data_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "portatune_svc_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TuningServiceOptions service_opt(const std::string& name) {
  TuningServiceOptions opt;
  opt.data_dir = fresh_data_dir(name);
  return opt;
}

apps::TuningConfig lu_config(const std::string& machine,
                             std::uint64_t seed = 42,
                             std::size_t budget = 40) {
  return apps::TuningConfig{}.problem("LU").machine(machine).max_evals(
      budget).seed(seed);
}

tuner::SearchTrace run_to_exhaustion(SessionHandle& s) {
  while (!s.step(10).exhausted) {
  }
  return s.trace_snapshot();
}

void expect_traces_equal(const tuner::SearchTrace& a,
                         const tuner::SearchTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).config, b.entry(i).config) << "entry " << i;
    EXPECT_DOUBLE_EQ(a.entry(i).seconds, b.entry(i).seconds) << "entry " << i;
    EXPECT_EQ(a.entry(i).draw_index, b.entry(i).draw_index) << "entry " << i;
  }
}

TEST(TuningServiceTest, ColdSessionLifecycle) {
  TuningService service(service_opt("lifecycle"));
  SessionHandle& s = service.open("s1", lu_config("Westmere"));
  EXPECT_FALSE(s.warm());  // the store is empty: nothing to warm from

  const tuner::SessionStepStats st = s.step(10);
  EXPECT_GT(st.evaluated, 0u);
  EXPECT_GT(st.best_seconds, 0.0);

  run_to_exhaustion(s);
  const tuner::SearchTrace trace = s.close();
  EXPECT_EQ(trace.size(), 40u);

  // Closing persisted the session directory and published to the store.
  EXPECT_TRUE(file_exists(s.dir() + "/meta.json"));
  EXPECT_TRUE(file_exists(s.dir() + "/checkpoint.csv"));
  EXPECT_EQ(service.store().size(), 1u);
  EXPECT_EQ(service.store().entries()[0].machine, "Westmere");

  const SessionInfo info = s.info();
  EXPECT_TRUE(info.closed);
  EXPECT_EQ(info.evals, 40u);
  EXPECT_DOUBLE_EQ(info.best_seconds, trace.best_seconds());

  // close() is idempotent and does not duplicate the store entry.
  expect_traces_equal(s.close(), trace);
  EXPECT_EQ(service.store().size(), 1u);
}

TEST(TuningServiceTest, OpenAndResumeValidation) {
  TuningService service(service_opt("validation"));
  service.open("s1", lu_config("Westmere"));
  EXPECT_THROW(service.open("s1", lu_config("Westmere")), Error);
  EXPECT_THROW(service.open("../evil", lu_config("Westmere")), Error);
  EXPECT_THROW(service.open("", lu_config("Westmere")), Error);
  EXPECT_THROW(service.resume("never-opened"), Error);
  EXPECT_EQ(service.find("s1")->id(), "s1");
  EXPECT_EQ(service.find("nope"), nullptr);

  // A closed session cannot be resumed — its work is done.
  service.find("s1")->close();
  EXPECT_THROW(service.resume("s1"), Error);
}

TEST(TuningServiceTest, SuggestReportFeedsExternalMeasurements) {
  TuningService service(service_opt("suggest"));
  const apps::TuningConfig cfg = lu_config("Sandybridge", 7, 30);
  SessionHandle& s = service.open("external", cfg);

  const std::vector<tuner::ParamConfig> cands = s.suggest(2);
  ASSERT_EQ(cands.size(), 2u);

  // Measure externally on an identical backend and feed the results in.
  auto stack = cfg.make_stack();
  std::size_t reported = 0;
  bool first_reported = false;
  for (const auto& c : cands) {
    const tuner::EvalResult r = stack->evaluate(c);
    if (!r.ok) continue;  // failed draws never enter the trace
    s.report(c, r.seconds);
    ++reported;
    if (&c == &cands.front()) first_reported = true;
  }
  EXPECT_EQ(s.trace_snapshot().size(), reported);

  // Reporting a configuration the session did not hand out (or already
  // consumed) is an error.
  if (first_reported) {
    EXPECT_THROW(s.report(cands[0], 1.0), Error);
  }

  // The session continues service-side from where the suggestions left
  // off, still respecting the overall budget.
  run_to_exhaustion(s);
  EXPECT_EQ(s.trace_snapshot().size(), 30u);
}

TEST(TuningServiceTest, CheckpointResumeContinuesExactly) {
  const TuningServiceOptions opt = service_opt("resume");

  // Reference: the same session uninterrupted (separate data dir so the
  // two services share nothing).
  tuner::SearchTrace reference;
  {
    TuningService ref_service(service_opt("resume_ref"));
    SessionHandle& r = ref_service.open("job", lu_config("Power7", 11));
    reference = run_to_exhaustion(r);
  }

  {
    TuningService service(opt);
    SessionHandle& s = service.open("job", lu_config("Power7", 11));
    s.step(15);
    s.checkpoint();
    // The service dies here; its destructor checkpoints once more.
  }

  // Sessions written before ForestParams lost `parallel_fit` carry it in
  // meta.json; the reader ignores the key.
  const std::string meta_path = opt.data_dir + "/sessions/job/meta.json";
  std::string meta = read_file(meta_path);
  const std::string forest = "\"forest\":{";
  ASSERT_NE(meta.find(forest), std::string::npos);
  ASSERT_EQ(meta.find("parallel_fit"), std::string::npos);
  meta.insert(meta.find(forest) + forest.size(), "\"parallel_fit\":true,");
  atomic_write_file(meta_path, meta);

  TuningService revived(opt);
  SessionHandle& s = revived.resume("job");
  EXPECT_GE(s.trace_snapshot().size(), 15u);
  const tuner::SearchTrace resumed = run_to_exhaustion(s);

  // Same seed, same replayed draw position: the resumed trace is the
  // uninterrupted trace, entry for entry.
  expect_traces_equal(resumed, reference);
}

TEST(TuningServiceTest, ResumeRestoresTheFullConfig) {
  // A config whose non-default fields change the evaluator stack and
  // therefore the trace: injected faults behind a resilient retry layer,
  // fanned out over two threads. If resume() dropped any of these fields
  // (rebuilding a default stack instead), the resumed trace would
  // diverge from the uninterrupted reference.
  const auto make_config = [] {
    tuner::FaultProfile faults;
    faults.transient_rate = 0.15;
    faults.deterministic_rate = 0.1;
    faults.seed = 9;
    tuner::RetryPolicy retry;
    retry.max_attempts = 2;
    return apps::TuningConfig{}
        .problem("LU")
        .machine("Westmere")
        .max_evals(30)
        .seed(11)
        .faults(faults)
        .resilient(true)
        .retry(retry)
        .eval_threads(2)
        .batch_width(4);
  };

  tuner::SearchTrace reference;
  {
    TuningService ref_service(service_opt("fullcfg_ref"));
    SessionHandle& r = ref_service.open("job", make_config());
    reference = run_to_exhaustion(r);
  }

  const TuningServiceOptions opt = service_opt("fullcfg");
  {
    TuningService service(opt);
    SessionHandle& s = service.open("job", make_config());
    s.step(10);
    s.checkpoint();
  }
  TuningService revived(opt);
  SessionHandle& s = revived.resume("job");
  expect_traces_equal(run_to_exhaustion(s), reference);
}

TEST(TuningServiceTest, PendingSuggestionsSurviveResume) {
  const TuningServiceOptions opt = service_opt("pending");
  const apps::TuningConfig cfg = lu_config("Westmere", 5, 20);

  std::vector<tuner::ParamConfig> cands;
  {
    TuningService service(opt);
    SessionHandle& s = service.open("ext", cfg);
    cands = s.suggest(2);
    ASSERT_EQ(cands.size(), 2u);
    s.checkpoint();
    // The service dies with the suggestions still outstanding.
  }

  // The resumed session still accepts report() for them: the checkpoint
  // carries the pending pairs alongside the draw watermark.
  TuningService revived(opt);
  SessionHandle& s = revived.resume("ext");
  auto stack = cfg.make_stack();
  std::size_t reported = 0;
  for (const auto& c : cands) {
    const tuner::EvalResult r = stack->evaluate(c);
    if (!r.ok) continue;
    s.report(c, r.seconds);
    ++reported;
  }
  EXPECT_EQ(s.trace_snapshot().size(), reported);

  // And the session continues service-side to the full budget.
  run_to_exhaustion(s);
  EXPECT_EQ(s.trace_snapshot().size(), 20u);
}

TEST(TuningServiceTest, ReopeningAClosedIdDropsTheStaleCheckpoint) {
  const TuningServiceOptions opt = service_opt("reopen");
  {
    TuningService service(opt);
    SessionHandle& s = service.open("job", lu_config("Westmere", 3, 40));
    s.step(5);
    s.close();  // leaves meta (closed) + the final checkpoint on disk
  }

  // Opening a fresh session over the closed directory must delete the
  // old checkpoint immediately: a crash before the new session's first
  // checkpoint would otherwise resume the previous trace against the
  // new config.
  TuningService second(opt);
  SessionHandle& s = second.open("job", lu_config("Westmere", 99, 10));
  EXPECT_FALSE(file_exists(s.dir() + "/checkpoint.csv"));
}

TEST(TuningServiceTest, CheckpointAllToleratesClosedSessions) {
  TuningService service(service_opt("ckpt_closed"));
  SessionHandle& a = service.open("a", lu_config("Westmere"));
  SessionHandle& b = service.open("b", lu_config("Power7"));
  a.step(5);
  b.step(3);
  b.close();

  // A session closing between the sweep's snapshot of the registry and
  // its checkpoint call must not abort the sweep for the rest.
  EXPECT_NO_THROW(service.checkpoint_all());
  EXPECT_NO_THROW(b.checkpoint());  // no-op on a closed session
  ASSERT_TRUE(file_exists(a.dir() + "/checkpoint.csv"));
  const tuner::SearchCheckpoint cp = tuner::load_checkpoint_csv(
      a.dir() + "/checkpoint.csv", a.space());
  EXPECT_EQ(cp.trace.size(), a.trace_snapshot().size());
}

TEST(TuningServiceTest, SessionsShareTheEvalCache) {
  TuningService service(service_opt("shared_cache"));

  // First session runs to exhaustion but stays open (no store
  // publication), so the second is cold too and replays the same seed.
  SessionHandle& a = service.open("a", lu_config("Westmere", 42));
  const tuner::SearchTrace trace_a = run_to_exhaustion(a);

  const EvalCacheStats before = service.cache().stats();
  SessionHandle& b = service.open("b", lu_config("Westmere", 42));
  const tuner::SearchTrace trace_b = run_to_exhaustion(b);
  const EvalCacheStats after = service.cache().stats();

  // Identical draw stream, deterministic backend: session b's trace is
  // session a's, and (fingerprint included) it ran hot from the cache.
  expect_traces_equal(trace_b, trace_a);
  EXPECT_GE(after.hits - before.hits, trace_a.size());
}

TEST(TuningServiceTest, ConcurrentSessionsMatchTheirSerialReferences) {
  // Single-threaded references, computed on bare stacks with no cache.
  const auto reference = [](const apps::TuningConfig& cfg) {
    auto stack = cfg.make_stack();
    tuner::TuningSession ref(*stack, cfg.search_options(), nullptr, "ref");
    while (!ref.step(10).exhausted) {
    }
    return ref.trace();
  };
  const apps::TuningConfig cfg_a = lu_config("Westmere", 1);
  const apps::TuningConfig cfg_b = lu_config("Sandybridge", 2);
  const tuner::SearchTrace ref_a = reference(cfg_a);
  const tuner::SearchTrace ref_b = reference(cfg_b);

  TuningService service(service_opt("concurrent"));
  SessionHandle& a = service.open("a", cfg_a);
  SessionHandle& b = service.open("b", cfg_b);

  std::thread ta([&] { run_to_exhaustion(a); });
  std::thread tb([&] { run_to_exhaustion(b); });
  ta.join();
  tb.join();

  // Two sessions advancing concurrently over the shared cache produce
  // exactly the traces their serial, cacheless counterparts produce.
  expect_traces_equal(a.trace_snapshot(), ref_a);
  expect_traces_equal(b.trace_snapshot(), ref_b);
  EXPECT_EQ(service.sessions().size(), 2u);
}

TEST(TuningServiceTest, WarmSessionReachesColdBestInFewerEvals) {
  TuningService service(service_opt("warm"));

  // Cold baseline on Sandybridge against an empty store.
  SessionHandle& cold = service.open("cold", lu_config("Sandybridge", 42,
                                                       100));
  run_to_exhaustion(cold);
  const tuner::SearchTrace cold_trace = cold.close();

  // A source machine tunes and publishes its trace.
  SessionHandle& src = service.open("src", lu_config("Westmere", 42, 100));
  run_to_exhaustion(src);
  src.close();
  EXPECT_EQ(service.store().size(), 2u);

  // The new Sandybridge session fingerprints as a known machine and
  // warm-starts from the most similar stored surrogate.
  SessionHandle& warm = service.open("warm", lu_config("Sandybridge", 7,
                                                       100));
  EXPECT_TRUE(warm.warm());
  EXPECT_FALSE(warm.warm_source().empty());
  run_to_exhaustion(warm);
  const tuner::SearchTrace warm_trace = warm.close();

  const auto evals_to_reach = [](const tuner::SearchTrace& t,
                                 double threshold) {
    for (std::size_t i = 0; i < t.size(); ++i)
      if (t.entry(i).seconds <= threshold) return i + 1;
    return t.size() + 1;
  };
  const double target = cold_trace.best_seconds();
  const std::size_t cold_needed = evals_to_reach(cold_trace, target);
  const std::size_t warm_needed = evals_to_reach(warm_trace, target);
  ASSERT_LE(warm_needed, warm_trace.size()) << "warm session never reached "
                                               "the cold best";
  EXPECT_LT(warm_needed, cold_needed);
}

TEST(TuningServiceTest, SessionIdsMintNoMetricNames) {
  // Clients choose session ids; none may become a registry name, or every
  // id a long-lived daemon ever saw rides in each stats reply.
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRedirect redirect(registry);
  TuningService service(service_opt("metric_names"));
  const auto open_and_close = [&](const std::string& id) {
    SessionHandle& s = service.open(id, lu_config("Westmere", 42, 10));
    s.step(10);
    s.close();
  };
  open_and_close("first");
  const std::size_t gauges = registry.snapshot().gauges.size();
  for (int i = 0; i < 50; ++i) open_and_close("s" + std::to_string(i));
  EXPECT_EQ(registry.snapshot().gauges.size(), gauges);
}

TEST(TuningServiceTest, CheckpointAllSnapshotsEveryOpenSession) {
  TuningService service(service_opt("checkpoint_all"));
  SessionHandle& a = service.open("a", lu_config("Westmere"));
  SessionHandle& b = service.open("b", lu_config("Power7"));
  a.step(5);
  b.step(5);
  service.checkpoint_all();
  for (const auto* h : {&a, &b}) {
    ASSERT_TRUE(file_exists(h->dir() + "/checkpoint.csv"));
    const tuner::SearchCheckpoint cp = tuner::load_checkpoint_csv(
        h->dir() + "/checkpoint.csv", h->space());
    EXPECT_EQ(cp.trace.size(), h->trace_snapshot().size());
  }
  service.publish_metrics();  // must not deadlock or throw with live sessions
}

}  // namespace
}  // namespace portatune::service
