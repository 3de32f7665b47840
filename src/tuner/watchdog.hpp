// Heartbeat deadline watchdog for in-flight evaluations.
//
// One process-wide monitor thread supervises every registered attempt: a
// layer that starts a potentially-hanging evaluation registers a
// (CancellationSource, deadline) pair and gets back an RAII Ticket. If
// the attempt finishes in time, the Ticket's destructor (or disarm())
// unregisters it and nothing happens. If the deadline passes first, the
// monitor cancels the attempt's source — waking anything cooperatively
// parked on its token, like the fault injector's simulated hang — and
// emits one Warn `eval.hang_detected` event plus an `eval.hang_detected`
// counter increment. On process shutdown the monitor cancels *all*
// registered attempts immediately (no hang events: they are not hung,
// the process is leaving), so graceful shutdown never waits out a stall.
//
// The watchdog frees *workers*; it does not classify results. A
// cooperative hang returns its own Timeout-classified failure whether the
// cancel arrived early or the stall ran its course, and the
// ResilientEvaluator's caller-side deadline stays the strict authority on
// non-cooperative (truly stuck) attempts — so traces are identical with
// the watchdog armed or not, only wall-clock time differs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "support/cancellation.hpp"

namespace portatune::tuner {

class EvalWatchdog {
 public:
  /// RAII registration handle. Destruction (or disarm()) unregisters the
  /// attempt; both are no-ops after the deadline already fired.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept : owner_(o.owner_), id_(o.id_) {
      o.owner_ = nullptr;
    }
    Ticket& operator=(Ticket&& o) noexcept {
      if (this != &o) {
        disarm();
        owner_ = o.owner_;
        id_ = o.id_;
        o.owner_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { disarm(); }

    void disarm() noexcept;

    /// Fire the deadline *now* (caller-side deadline hit first): cancel
    /// the attempt and report the hang, unless the monitor already did —
    /// whoever removes the registration counts it, under the watchdog's
    /// lock, and reports, so each hang is counted exactly once and is
    /// counted by the time expire() returns.
    void expire() noexcept;

   private:
    friend class EvalWatchdog;
    Ticket(EvalWatchdog* owner, std::uint64_t id) : owner_(owner), id_(id) {}
    EvalWatchdog* owner_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// Supervise one attempt: after `deadline_seconds`, `source` is
  /// cancelled and a hang is reported. `label` tags the event
  /// ("problem@machine", a search window, ...). The monitor thread starts
  /// lazily on the first watch.
  Ticket watch(CancellationSource source, double deadline_seconds,
               std::string label);

  /// Process-total hang detections (monotonic, for tests).
  std::uint64_t hangs_detected() const noexcept {
    return hangs_.load(std::memory_order_relaxed);
  }

  static EvalWatchdog& global();

  ~EvalWatchdog();
  EvalWatchdog(const EvalWatchdog&) = delete;
  EvalWatchdog& operator=(const EvalWatchdog&) = delete;

 private:
  EvalWatchdog() = default;

  struct Entry {
    CancellationSource source;
    std::chrono::steady_clock::time_point deadline;
    double deadline_seconds = 0.0;
    std::string label;
  };

  void unregister(std::uint64_t id) noexcept;
  void expire_now(std::uint64_t id) noexcept;
  void report_hang(Entry& entry) noexcept;
  void monitor_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t next_id_ = 1;
  bool stop_ = false;
  bool shutdown_broadcast_done_ = false;
  std::atomic<std::uint64_t> hangs_{0};
  std::thread monitor_;  ///< started lazily by the first watch()
};

}  // namespace portatune::tuner
