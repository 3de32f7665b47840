// Process-wide graceful shutdown.
//
// One global cancellation domain represents "this process was asked to
// stop". Drivers wire shutdown_token() into their search options and
// evaluator stacks; long-running loops then unwind at the next window
// boundary, flush their checkpoints/journals, and exit with resumable
// state on disk.
//
// install_shutdown_signal_handler() maps SIGINT/SIGTERM onto that domain
// using the self-pipe pattern: the handler only write()s one byte (async-
// signal-safe), and a lazily started watcher thread does the actual
// request_shutdown() — which takes locks and notifies condition variables,
// neither of which is legal inside a signal handler. A *second* signal
// force-exits immediately (handler-side _exit, no flushing): the escape
// hatch when cooperative shutdown itself is stuck.
#pragma once

#include "support/cancellation.hpp"

namespace portatune {

/// Token of the process-wide shutdown domain. Valid from the first call.
CancellationToken shutdown_token() noexcept;

/// Programmatic shutdown (tests, embedders): cancels the shutdown domain
/// exactly as the first SIGINT/SIGTERM would.
void request_shutdown() noexcept;

/// A function run (on the shutdown watcher thread, not in the signal
/// handler) exactly once when shutdown is first requested, before the
/// shutdown domain is cancelled — the seam the flight recorder uses to
/// dump its ring before the cooperative unwind begins (and so before an
/// unwinding thread can destroy the recorder). Hooks must be fast and
/// must not throw. Registering after
/// shutdown was already requested invokes the hook immediately. A plain
/// function pointer on purpose: hooks reach their state through their own
/// globals, and support stays free of ownership questions.
using ShutdownHook = void (*)() noexcept;
void add_shutdown_hook(ShutdownHook hook) noexcept;
/// Remove a previously added hook (scoped installers; no-op if absent).
void remove_shutdown_hook(ShutdownHook hook) noexcept;

/// Install the SIGINT/SIGTERM handler (POSIX; no-op elsewhere and on
/// repeat calls). First signal: graceful shutdown via the self-pipe;
/// second signal: _exit(128 + signo).
void install_shutdown_signal_handler();

}  // namespace portatune
