#include "support/signal.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#ifndef _WIN32
#include <csignal>
#include <thread>
#include <unistd.h>
#endif

namespace portatune {

namespace {

CancellationSource& shutdown_source() {
  // Function-local: valid regardless of static-init order, and the shared
  // state is intentionally leaked on exit (detached watcher threads and
  // late tokens may still touch it while the process unwinds).
  static CancellationSource* source = new CancellationSource();
  return *source;
}

struct ShutdownHooks {
  std::mutex mutex;
  std::vector<ShutdownHook> hooks;
  bool fired = false;
};

ShutdownHooks& shutdown_hooks() {
  // Leaked for the same reason as the shutdown source.
  static ShutdownHooks* hooks = new ShutdownHooks();
  return *hooks;
}

void run_shutdown_hooks() noexcept {
  ShutdownHooks& s = shutdown_hooks();
  std::vector<ShutdownHook> to_run;
  {
    std::lock_guard lock(s.mutex);
    if (s.fired) return;
    s.fired = true;
    to_run = s.hooks;
  }
  for (ShutdownHook hook : to_run)
    if (hook != nullptr) hook();
}

#ifndef _WIN32
// Written by install (main thread), read by the async handler.
std::atomic<int> g_signal_pipe_fd{-1};
// How many shutdown signals arrived. A lock-free atomic, which a signal
// handler may use (C++17 [support.signal]).
std::atomic<int> g_signals_seen{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void shutdown_signal_handler(int signo) {
  if (g_signals_seen.fetch_add(1, std::memory_order_relaxed) > 0) {
    // Second signal: cooperative shutdown is taking too long (or is
    // itself stuck) — force-exit with the conventional signal status.
    _exit(128 + signo);
  }
  const int fd = g_signal_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // write() is async-signal-safe; the watcher thread does the rest.
    [[maybe_unused]] const auto ignored = write(fd, &byte, 1);
  }
}
#endif

}  // namespace

CancellationToken shutdown_token() noexcept {
  return shutdown_source().token();
}

void request_shutdown() noexcept {
  // Hooks first: once the domain is cancelled, woken threads unwind and
  // may destroy what a hook touches (the flight recorder).
  run_shutdown_hooks();
  shutdown_source().request_cancel();
}

void add_shutdown_hook(ShutdownHook hook) noexcept {
  if (hook == nullptr) return;
  bool already_fired;
  {
    ShutdownHooks& s = shutdown_hooks();
    std::lock_guard lock(s.mutex);
    already_fired = s.fired;
    if (!already_fired) s.hooks.push_back(hook);
  }
  if (already_fired) hook();  // late registration: honour the contract
}

void remove_shutdown_hook(ShutdownHook hook) noexcept {
  ShutdownHooks& s = shutdown_hooks();
  std::lock_guard lock(s.mutex);
  s.hooks.erase(std::remove(s.hooks.begin(), s.hooks.end(), hook),
                s.hooks.end());
}

void install_shutdown_signal_handler() {
#ifndef _WIN32
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;

  int fds[2];
  if (pipe(fds) != 0) return;  // no pipe, no handler — stay signal-default
  const int read_fd = fds[0];
  g_signal_pipe_fd.store(fds[1], std::memory_order_relaxed);

  // Detached on purpose: it blocks in read() for the process lifetime and
  // is reaped by process exit. It must not hold anything destructible.
  std::thread([read_fd] {
    char byte;
    while (read(read_fd, &byte, 1) == 1) request_shutdown();
  }).detach();

  struct sigaction sa = {};
  sa.sa_handler = shutdown_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#endif
}

}  // namespace portatune
