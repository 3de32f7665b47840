#include "tuner/session.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"

namespace portatune::tuner {

TuningSession::TuningSession(Evaluator& eval, SessionOptions opt)
    : eval_(eval),
      opt_(std::move(opt)),
      trace_(opt_.warm_model != nullptr ? "RS_b" : "RS", eval.problem_name(),
             eval.machine_name()),
      loop_(eval, trace_, opt_.failure_budget, opt_.cancel,
            window_width(eval)) {
  opened_mono_ = obs::mono_now();
  if (opt_.warm_model != nullptr) {
    PT_REQUIRE(opt_.warm_model->is_fitted(),
               "warm session requires a fitted surrogate");
    obs::ScopedTimer rank_span("session.rank", "service",
                               {{"id", opt_.id},
                                {"pool_size",
                                 static_cast<std::uint64_t>(opt_.pool_size)}});
    RankedPool pool =
        rank_pool(opt_.warm_model, eval_.space(), opt_.seed, opt_.pool_size);
    // Ranked; no trust monitor reads a session's predictions, and a
    // daemon holds many pools.
    pool.predicted = std::vector<double>();
    source_ = std::make_unique<PoolSource>(std::move(pool), eval_.space());
  } else {
    source_ = std::make_unique<StreamSource>(eval_.space(), opt_.seed);
  }

  if (opt_.resume != nullptr) {
    loop_.resume(*opt_.resume, *source_);
    // Outstanding suggestions survive the resume: their draws are inside
    // the replayed watermark, so without the restored pairs report()
    // would reject them and the configs would silently never evaluate.
    pending_ = opt_.resume->pending;
  }

  obs::MetricsRegistry::current().counter("service.sessions_opened").add(1);
  if (!obs::enabled(obs::Severity::Info)) return;
  obs::emit(obs::make_instant(
      obs::Severity::Info, "session.open", "service",
      {{"id", opt_.id},
       {"kind", "tuning"},
       {"problem", eval_.problem_name()},
       {"machine", eval_.machine_name()},
       {"warm", warm()},
       {"resumed", opt_.resume != nullptr},
       {"budget", static_cast<std::uint64_t>(opt_.max_evals)}}));
}

TuningSession::~TuningSession() {
  try {
    close();
  } catch (...) {
    // Destructor: the close span is best-effort; never propagate.
  }
}

void TuningSession::require_open(const char* op) const {
  PT_REQUIRE(!closed_,
             std::string(op) + " on closed session '" + opt_.id + "'");
}

SessionStepStats TuningSession::step(std::size_t n) {
  require_open("step");
  SessionStepStats st;
  const std::size_t evals_before = trace_.size();
  const std::size_t failures_before = trace_.failure_stats().failures;
  // Anything but a full step (source dry, failure budget spent,
  // cancelled) ends the session's progress for good.
  if (!exhausted_ &&
      !loop_.run(*source_, evals_before + std::min(n, remaining_budget())))
    exhausted_ = true;
  st.evaluated = trace_.size() - evals_before;
  st.failures = trace_.failure_stats().failures - failures_before;
  obs::MetricsRegistry::current()
      .counter("service.session_evals")
      .add(st.evaluated);
  st.best_seconds = trace_.best_seconds();
  st.exhausted =
      exhausted_ || loop_.budget.exhausted() || remaining_budget() == 0;
  return st;
}

std::vector<ParamConfig> TuningSession::suggest(std::size_t n) {
  require_open("suggest");
  std::vector<ParamConfig> configs;
  const std::size_t want = std::min(n, remaining_budget());
  Draw d;
  while (configs.size() < want) {
    if (!source_->next(d)) {
      exhausted_ = true;
      break;
    }
    pending_.emplace_back(eval_.space().config_hash(d.config), d.index);
    loop_.consumed = d.watermark;
    configs.push_back(std::move(d.config));
  }
  return configs;
}

void TuningSession::report(const ParamConfig& config, double seconds) {
  require_open("report");
  // Non-finite times would poison the checkpoint (its loader rejects
  // them), so the session could never resume.
  PT_REQUIRE(std::isfinite(seconds) && seconds > 0.0,
             "reported run time must be finite and positive");
  const std::uint64_t hash = eval_.space().config_hash(config);
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&](const auto& p) { return p.first == hash; });
  PT_REQUIRE(it != pending_.end(),
             "reported configuration was not suggested by session '" +
                 opt_.id + "'");
  const std::size_t draw_idx = it->second;
  pending_.erase(it);
  const EvalResult r = EvalResult::success(seconds);
  trace_.note_result(r);
  loop_.budget.note(r);
  trace_.record(config, seconds, draw_idx);
}

SearchCheckpoint TuningSession::checkpoint() const {
  SearchCheckpoint snapshot = loop_.checkpoint();
  snapshot.pending = pending_;
  return snapshot;
}

void TuningSession::close() {
  if (closed_) return;
  closed_ = true;
  obs::MetricsRegistry::current().counter("service.sessions_closed").add(1);
  if (!obs::enabled(obs::Severity::Info)) return;
  std::vector<obs::Field> fields{
      {"id", opt_.id},
      {"kind", "tuning"},
      {"evals", static_cast<std::uint64_t>(trace_.size())},
      {"failures",
       static_cast<std::uint64_t>(trace_.failure_stats().failures)},
  };
  if (!trace_.empty())
    fields.emplace_back("best_seconds", trace_.best_seconds());
  if (!trace_.stop_reason().empty())
    fields.emplace_back("stop", trace_.stop_reason());
  obs::emit(obs::make_span(obs::Severity::Info, "session.closed", "service",
                           obs::mono_now() - opened_mono_,
                           std::move(fields)));
}

}  // namespace portatune::tuner
