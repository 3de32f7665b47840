#include "support/cancellation.hpp"

#include <chrono>
#include <thread>

namespace portatune {

bool CancellationToken::wait_for(double seconds) const {
  // Wake at the earlier of `seconds` from now and the deadline; comparing
  // as durations first keeps a huge `seconds` from overflowing the clock.
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> wait(seconds);
  const Clock::time_point until =
      wait < deadline_ - now
          ? now + std::chrono::duration_cast<Clock::duration>(wait)
          : deadline_;
  if (state_ == nullptr) {
    std::this_thread::sleep_until(until);
  } else {
    std::unique_lock lock(state_->mutex);
    state_->cv.wait_until(lock, until, [this] {
      return state_->cancelled.load(std::memory_order_acquire);
    });
  }
  return cancelled();
}

void CancellationSource::request_cancel() noexcept {
  // The store happens under the lock so a waiter cannot check the flag,
  // decide to sleep, and miss the notify in between.
  {
    std::lock_guard lock(state_->mutex);
    state_->cancelled.store(true, std::memory_order_release);
  }
  state_->cv.notify_all();
}

namespace {
thread_local CancellationToken t_ambient_token{};
}  // namespace

CancellationToken current_cancellation_token() noexcept {
  return t_ambient_token;
}

CancellationScope::CancellationScope(CancellationToken token) noexcept
    : previous_(t_ambient_token) {
  t_ambient_token = std::move(token);
}

CancellationScope::~CancellationScope() { t_ambient_token = previous_; }

}  // namespace portatune
