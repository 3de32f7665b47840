#include "tuner/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/signal.hpp"
#include "support/thread_pool.hpp"

namespace portatune::tuner {

std::string FailureBudgetTracker::reason() const {
  if (consecutive_ >= budget_.max_consecutive)
    return "failure budget exhausted: " + std::to_string(consecutive_) +
           " consecutive failed evaluations (cap " +
           std::to_string(budget_.max_consecutive) + ")";
  if (total_ >= budget_.max_total)
    return "failure budget exhausted: " + std::to_string(total_) +
           " failed evaluations in total (cap " +
           std::to_string(budget_.max_total) + ")";
  return {};
}

namespace {

/// Shared slot for one timed attempt. The worker fills it; the caller may
/// have given up waiting, so the slot owns all state.
struct AttemptSlot {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  EvalResult result;
};

/// Count, log and black-box one attempt that was still running at its
/// deadline.
void report_hang(const std::string& label, double deadline_seconds) {
  obs::MetricsRegistry::current().counter("eval.hang_detected").add(1);
  if (obs::enabled(obs::Severity::Warn))
    obs::emit(obs::make_instant(obs::Severity::Warn, "eval.hang_detected",
                                "eval",
                                {{"label", label},
                                 {"deadline_seconds", deadline_seconds}}));
  // A detected hang is an abnormal-exit precursor: ship the black box
  // now, while the final moments are still in the ring.
  obs::dump_flight_recorder("eval.hang_detected");
}

}  // namespace

ResilientEvaluator::ResilientEvaluator(Evaluator& inner, RetryPolicy policy)
    : inner_(inner), policy_(policy) {
  PT_REQUIRE(policy_.max_attempts >= 1, "RetryPolicy needs >= 1 attempt");
  PT_REQUIRE(policy_.backoff_multiplier >= 1.0,
             "backoff multiplier must be >= 1");
  if (policy_.timeout_seconds > 0.0) {
    // A pool of its own, not the global one: the deadline must return
    // while an attempt that ignores cancellation keeps sleeping, which
    // needs the thread hop. A few workers so one hung attempt does not
    // stall the next evaluation behind it in the queue.
    attempt_pool_ = std::make_unique<ThreadPool>(4);
  }
}

// Defined where ThreadPool is complete (unique_ptr member).
ResilientEvaluator::~ResilientEvaluator() = default;

bool ResilientEvaluator::is_quarantined(const ParamConfig& config) const {
  const std::uint64_t hash = inner_.space().config_hash(config);
  std::lock_guard lock(mutex_);
  return quarantine_.count(hash) > 0;
}

std::vector<std::uint64_t> ResilientEvaluator::quarantined_hashes() const {
  std::lock_guard lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(quarantine_.size());
  for (const auto& [hash, kind] : quarantine_) out.push_back(hash);
  std::sort(out.begin(), out.end());
  return out;
}

void ResilientEvaluator::restore_quarantine(
    const std::vector<std::uint64_t>& hashes) {
  std::lock_guard lock(mutex_);
  for (const auto h : hashes)
    if (quarantine_.emplace(h, FailureKind::Deterministic).second)
      ++stats_.quarantined;
}

void ResilientEvaluator::quarantine(std::uint64_t hash, FailureKind kind) {
  std::lock_guard lock(mutex_);
  if (quarantine_.emplace(hash, kind).second) ++stats_.quarantined;
}

EvalResult ResilientEvaluator::attempt(const ParamConfig& config) {
  if (!attempt_pool_) {
    try {
      return inner_.evaluate(config);
    } catch (const std::exception& e) {
      // A throwing backend (e.g. compile pipeline) is a deterministic
      // failure of this configuration, not of the search.
      return EvalResult::failure(e.what());
    }
  }

  // One deadline for both sides. The attempt runs under the shutdown
  // token plus this deadline, so a cooperative hang parked on it (the
  // injected Hang fault) wakes by itself at the deadline or at shutdown;
  // the caller waits out the same instant and reports the hang.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             policy_.timeout_seconds));
  auto slot = std::make_shared<AttemptSlot>();
  attempt_pool_->submit([slot, inner = &inner_, config,
                         token = shutdown_token().with_deadline(deadline)] {
    CancellationScope cancel_scope(token);
    EvalResult r;
    try {
      r = inner->evaluate(config);
    } catch (const std::exception& e) {
      r = EvalResult::failure(e.what());
    }
    std::lock_guard lock(slot->mutex);
    slot->result = std::move(r);
    slot->done = true;
    slot->cv.notify_all();
  });

  std::unique_lock lock(slot->mutex);
  // Abandoned on expiry: the worker keeps running and discards its
  // result into the slot; the pool reaps it at destruction.
  EvalResult r =
      slot->cv.wait_until(lock, deadline, [&] { return slot->done; })
          ? slot->result
          : EvalResult::failure("evaluation exceeded the " +
                                    std::to_string(policy_.timeout_seconds) +
                                    " s deadline",
                                FailureKind::Timeout);
  lock.unlock();
  // Still running at the deadline: the wait expired, or the attempt came
  // back Timeout only once it had passed (a hang its token woke). A hang
  // that shutdown woke earlier is not reported.
  if (r.failure_kind == FailureKind::Timeout && Clock::now() >= deadline)
    report_hang(inner_.problem_name() + "@" + inner_.machine_name(),
                policy_.timeout_seconds);
  return r;
}

EvalResult ResilientEvaluator::evaluate(const ParamConfig& config) {
  // One causal span per call: the per-attempt events the inner observer
  // emits (including retries, and the attempt-pool hop — ThreadPool
  // carries the SpanContext into the timed attempt) all nest under this
  // retry chain. Dormant path: one enabled() check.
  std::optional<obs::ScopedTimer> call_span;
  if (obs::enabled(obs::Severity::Debug))
    call_span.emplace("resilient.call", "eval", std::vector<obs::Field>{},
                      nullptr, obs::Severity::Debug);
  const std::uint64_t hash = inner_.space().config_hash(config);
  {
    std::lock_guard lock(mutex_);
    ++stats_.calls;
    if (const auto it = quarantine_.find(hash); it != quarantine_.end()) {
      ++stats_.quarantine_hits;
      EvalResult r = EvalResult::failure(
          "configuration is quarantined (prior " +
              std::string(to_string(it->second)) + " failure)",
          it->second);
      r.attempts = 0;
      return r;
    }
  }

  double overhead = 0.0;
  double backoff = policy_.backoff_initial;
  EvalResult last;
  for (std::size_t attempt_no = 1; attempt_no <= policy_.max_attempts;
       ++attempt_no) {
    // The backend attempt runs outside the lock: concurrent callers (a
    // ParallelEvaluator window) only serialize on the counter updates.
    EvalResult r = attempt(config);
    {
      std::lock_guard lock(mutex_);
      ++stats_.attempts;
      if (attempt_no > 1) ++stats_.retries;
      if (r.ok) {
        ++stats_.successes;
      } else {
        switch (r.failure_kind) {
          case FailureKind::Timeout: ++stats_.timeouts; break;
          case FailureKind::Transient: ++stats_.transient_failures; break;
          default: ++stats_.deterministic_failures; break;
        }
      }
    }

    if (r.ok) {
      r.failure_kind = FailureKind::None;
      r.attempts = attempt_no;
      r.overhead_seconds += overhead;
      return r;
    }

    // Classify. Backends that predate classification report Deterministic
    // via EvalResult::failure's default, which is the safe direction: a
    // config that failed once is never hammered with retries by mistake.
    switch (r.failure_kind) {
      case FailureKind::Timeout:
        overhead += policy_.timeout_seconds;  // wall-clock spent waiting
        if (policy_.quarantine_timeout) quarantine(hash, FailureKind::Timeout);
        r.attempts = attempt_no;
        r.overhead_seconds = overhead;
        return r;
      case FailureKind::Transient:
        break;
      default:
        r.failure_kind = FailureKind::Deterministic;
        if (policy_.quarantine_deterministic)
          quarantine(hash, FailureKind::Deterministic);
        r.attempts = attempt_no;
        r.overhead_seconds = overhead;
        return r;
    }

    last = std::move(r);
    if (attempt_no < policy_.max_attempts) {
      const double delay = std::min(backoff, policy_.backoff_max);
      overhead += delay;
      {
        std::lock_guard lock(mutex_);
        stats_.backoff_seconds += delay;
      }
      backoff *= policy_.backoff_multiplier;
      if (policy_.sleep_on_backoff)
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }

  // Transient failures on every attempt: treat the configuration as bad.
  if (policy_.quarantine_exhausted) quarantine(hash, FailureKind::Transient);
  last.error += " (after " + std::to_string(policy_.max_attempts) +
                " attempts)";
  last.attempts = policy_.max_attempts;
  last.overhead_seconds = overhead;
  return last;
}

}  // namespace portatune::tuner
