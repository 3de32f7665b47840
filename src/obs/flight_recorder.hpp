// Crash flight recorder: the run's black box.
//
// A FlightRecorder is an EventSink holding a fixed-capacity ring of the
// most recent events — at *every* severity, even when the file sink the
// user asked for is threshold-filtered (the CLI drops the global log
// level to Debug and wraps the conventional sinks in FilterSinks, so the
// recorder is the one consumer that sees everything). dump() serialises
// the ring through atomic_write_file to `flight_recorder.jsonl`, one
// event per line behind a single metadata header line, so every abnormal
// exit ships the final moments of the run:
//
//   * SIGINT/SIGTERM            via a support shutdown hook
//   * a hung timed attempt      (eval.hang_detected, tuner/resilience.cpp)
//   * a search abort            (search.abort, tuner/trace.cpp)
//   * a failed PT_REQUIRE       via the support error hook
//   * periodically              (the MetricsSampler tick), so even a
//                               SIGKILL — which runs no hook at all —
//                               leaves a dump at most one period old
//
// Dormant-path guarantee: nothing here touches the emit() fast path.
// With no recorder installed the event hot path is byte-for-byte the
// code it was before this file existed; the only cost of an *installed*
// recorder is one ring slot copy per event under the sink mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "support/error.hpp"

namespace portatune::obs {

class FlightRecorder final : public EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Arm dump(): without a path every dump request is a no-op (tests use
  /// snapshot() instead).
  void set_dump_path(std::string path);
  const std::string& dump_path() const noexcept { return dump_path_; }

  /// The retained events, oldest first.
  std::vector<Event> snapshot() const;
  /// Total events ever offered (>= capacity once the ring wrapped).
  std::uint64_t events_seen() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Write the ring to dump_path(): a `flight_recorder` metadata header
  /// line (reason, counts, timestamps) followed by one event JSON object
  /// per line, oldest first. The ring is snapshotted first and the
  /// default sink flushed before the write, so every event in the dump
  /// has already been offered to the log — the dump's tail lines up with
  /// the log's tail. Never throws (an unwritable path is reported once
  /// on stderr and otherwise ignored: the black box must not take the
  /// plane down), and re-entrant triggers (a PT_REQUIRE raised *by* the
  /// dump) are suppressed.
  void dump(const char* reason) noexcept;

  /// Number of successful dump() writes.
  std::uint64_t dumps_written() const noexcept;

 protected:
  void write(const Event& event) override;

 private:
  const std::size_t capacity_;
  mutable std::mutex ring_mutex_;
  std::vector<Event> ring_;     ///< ring_[seen_ % capacity_] is next slot
  std::uint64_t seen_ = 0;
  std::string dump_path_;
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<bool> warned_{false};
};

/// The process-wide recorder the abnormal-exit triggers dump (nullptr =
/// none installed). Distinct from the default *sink* chain: triggers
/// need to find the recorder without knowing how the sinks are wired.
FlightRecorder* global_flight_recorder() noexcept;
void set_global_flight_recorder(FlightRecorder* recorder) noexcept;

/// Dump the installed recorder, if any (the one call every trigger site
/// makes; safe from any thread, never throws).
void dump_flight_recorder(const char* reason) noexcept;

/// RAII installation of the full trigger set: global recorder pointer,
/// the PT_REQUIRE error hook, and the SIGINT/SIGTERM shutdown hook.
/// Restores the previous recorder and error hook on destruction. The
/// recorder itself is not owned and must outlive the scope.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& recorder);
  ~ScopedFlightRecorder();
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* previous_;
  ErrorHook previous_error_hook_;
};

}  // namespace portatune::obs
