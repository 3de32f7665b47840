#include "tuner/watchdog.hpp"

#include <algorithm>
#include <vector>

#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/signal.hpp"

namespace portatune::tuner {

EvalWatchdog& EvalWatchdog::global() {
  // Intentionally leaked: worker threads of searches torn down during
  // process exit may still disarm tickets after static destructors run.
  static EvalWatchdog* instance = new EvalWatchdog();
  return *instance;
}

EvalWatchdog::~EvalWatchdog() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void EvalWatchdog::Ticket::disarm() noexcept {
  if (owner_ != nullptr) owner_->unregister(id_);
  owner_ = nullptr;
}

void EvalWatchdog::Ticket::expire() noexcept {
  if (owner_ != nullptr) owner_->expire_now(id_);
  owner_ = nullptr;
}

void EvalWatchdog::unregister(std::uint64_t id) noexcept {
  std::lock_guard lock(mutex_);
  entries_.erase(id);  // absent when the deadline already fired
}

void EvalWatchdog::expire_now(std::uint64_t id) noexcept {
  Entry entry;
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) return;  // monitor already fired + counted
    entry = std::move(it->second);
    entries_.erase(it);
    hangs_.fetch_add(1, std::memory_order_relaxed);
  }
  report_hang(entry);
}

void EvalWatchdog::report_hang(Entry& entry) noexcept {
  entry.source.request_cancel();
  obs::MetricsRegistry::current().counter("eval.hang_detected").add(1);
  if (obs::enabled(obs::Severity::Warn))
    obs::emit(obs::make_instant(
        obs::Severity::Warn, "eval.hang_detected", "eval",
        {{"label", entry.label},
         {"deadline_seconds", entry.deadline_seconds}}));
  // A detected hang is an abnormal-exit precursor: ship the black box
  // now, while the final moments are still in the ring.
  obs::dump_flight_recorder("eval.hang_detected");
}

EvalWatchdog::Ticket EvalWatchdog::watch(CancellationSource source,
                                         double deadline_seconds,
                                         std::string label) {
  Entry entry;
  entry.source = std::move(source);
  entry.deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(deadline_seconds));
  entry.deadline_seconds = deadline_seconds;
  entry.label = std::move(label);
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    id = next_id_++;
    entries_.emplace(id, std::move(entry));
    if (!monitor_.joinable())
      monitor_ = std::thread([this] { monitor_loop(); });
  }
  cv_.notify_all();
  return Ticket(this, id);
}

void EvalWatchdog::monitor_loop() {
  // The heartbeat bounds how late the shutdown broadcast can be; expired
  // deadlines wake the loop exactly on time via wait_until.
  constexpr auto kHeartbeat = std::chrono::milliseconds(50);
  std::unique_lock lock(mutex_);
  while (!stop_) {
    auto wake = std::chrono::steady_clock::now() + kHeartbeat;
    for (const auto& [id, entry] : entries_)
      wake = std::min(wake, entry.deadline);
    cv_.wait_until(lock, wake, [this] { return stop_; });
    if (stop_) return;

    if (shutdown_requested() && !shutdown_broadcast_done_) {
      // Not hangs: the process is leaving. Cancel everything so no
      // cooperative stall outlives the shutdown request.
      shutdown_broadcast_done_ = true;
      for (auto& [id, entry] : entries_) entry.source.request_cancel();
    }

    const auto now = std::chrono::steady_clock::now();
    std::vector<Entry> fired;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.deadline <= now) {
        fired.push_back(std::move(it->second));
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    if (fired.empty()) continue;
    // Counted with the lock held, as in expire_now: an expire() that
    // finds its entry gone, or a waiter woken by the cancellation, must
    // already see the hang counted.
    hangs_.fetch_add(fired.size(), std::memory_order_relaxed);

    // Report without the lock held: sinks may be slow, and report_hang
    // only touches the already-detached entries.
    lock.unlock();
    for (auto& entry : fired) report_hang(entry);
    lock.lock();
  }
}

}  // namespace portatune::tuner
