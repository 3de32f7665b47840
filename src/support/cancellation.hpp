// Cooperative cancellation: the primitive behind graceful shutdown and
// the per-evaluation deadline.
//
// A CancellationSource owns a flag; every CancellationToken copied from
// it observes that flag. A token may also carry an absolute deadline
// (with_deadline): it then reports cancellation once its domain is
// cancelled or the deadline has passed, whichever comes first, so no
// thread has to watch the clock on its behalf. Cancellation is
// *cooperative*: nothing is interrupted — long-running work (an
// evaluation stall, a search window loop) polls cancelled() or parks on
// wait_for(), and unwinds on its own terms. That is what keeps cancelled
// runs deterministic enough to resume: a search that stops "because
// cancelled" stops at a window boundary with a consistent checkpoint,
// never mid-record.
//
// Like SpanContext, a thread-local *ambient* token lets a layer deep
// inside an evaluator stack (the fault injector's simulated hang) observe
// the attempt that runs it without a token threaded through every
// signature. ResilientEvaluator installs one inside each timed attempt,
// on the attempt's own thread: the shutdown token plus the attempt's
// deadline. Thread pools do not carry it across a hop.
//
// This header lives in support (not tuner) because the process-wide
// shutdown domain (support/signal.hpp) is built on it, and support cannot
// link tuner.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace portatune {

namespace detail {

/// Shared state of one cancellation domain. The mutex/cv pair exists so
/// wait_for() wakes *immediately* on cancellation instead of timing out;
/// the flag alone would only support polling.
struct CancelState {
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<bool> cancelled{false};
};

}  // namespace detail

/// Read-only view of a cancellation domain, optionally with a deadline.
/// Default-constructed tokens are *invalid*: they never report
/// cancellation and wait_for() degrades to a plain sleep — so APIs can
/// take a token by value with `{}` as the "not cancellable" default.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;

  /// True when the token can ever report cancellation: it observes a
  /// domain or carries a deadline.
  bool valid() const noexcept {
    return state_ != nullptr || deadline_ != Clock::time_point::max();
  }

  /// A copy that also reports cancellation from `deadline` on (the
  /// earlier one, when this token already has a deadline). The domain is
  /// shared: cancelling it still wakes the copy early.
  CancellationToken with_deadline(Clock::time_point deadline) const {
    CancellationToken token = *this;
    if (deadline < token.deadline_) token.deadline_ = deadline;
    return token;
  }

  /// True once the domain is cancelled (acquire load) or the deadline has
  /// passed. Only a token with a deadline reads the clock.
  bool cancelled() const noexcept {
    if (state_ != nullptr && state_->cancelled.load(std::memory_order_acquire))
      return true;
    return deadline_ != Clock::time_point::max() && Clock::now() >= deadline_;
  }

  /// Park for up to `seconds`: returns true the moment the domain is
  /// cancelled or the deadline passes, false when the full duration
  /// elapsed first. A token without a domain sleeps until the earlier of
  /// `seconds` and its deadline.
  bool wait_for(double seconds) const;

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
  Clock::time_point deadline_ = Clock::time_point::max();  ///< max = none
};

/// Owner of a cancellation domain. Copyable — copies share the domain.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancellationToken token() const noexcept {
    return CancellationToken(state_);
  }

  /// Idempotent: sets the flag and wakes every wait_for().
  void request_cancel() noexcept;

  bool cancel_requested() const noexcept {
    return state_->cancelled.load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

/// The ambient token of the calling thread (invalid when none installed).
CancellationToken current_cancellation_token() noexcept;

/// RAII: install `token` as the calling thread's ambient token, restore
/// the previous one on destruction (mirrors SpanScope).
class CancellationScope {
 public:
  explicit CancellationScope(CancellationToken token) noexcept;
  ~CancellationScope();

  CancellationScope(const CancellationScope&) = delete;
  CancellationScope& operator=(const CancellationScope&) = delete;

 private:
  CancellationToken previous_;
};

}  // namespace portatune
