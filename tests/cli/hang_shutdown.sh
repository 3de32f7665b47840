#!/usr/bin/env bash
# Hang-shutdown test: a stuck evaluation must not hold up a graceful exit.
#
# Each run below injects 30 s cooperative hangs. SIGTERM one second in
# must end it with the resumable status 3 within 4 s:
#   (a) a timed collect: each attempt parks on the shutdown token plus its
#       --timeout 10 deadline, so the shutdown, not the deadline, wakes it;
#   (b) an experiment, whose stacks have no deadline: the hang parks on
#       the shutdown token itself.
# The collect runs serially. At --threads 4 the main thread may be waiting
# for a window's helper in std::future::wait, a raw futex that TSan does
# not count as a blocking call, so under TSan the signal would reach the
# handler only when that wait ends, at the 10 s deadline.
#
# Usage: hang_shutdown.sh <portatune_cli> <work-dir>
set -euo pipefail

CLI=$(realpath "$1")
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

# term_after_1s <name> <cli args...>: start the run, SIGTERM it after 1 s,
# and require exit 3 within 4 s of the signal. A run still alive at 4 s
# is SIGKILLed (exit 137), so a regression fails fast.
term_after_1s() {
  local name=$1
  shift
  "$CLI" "$@" > "$name.out" 2>&1 &
  local pid=$!
  sleep 1
  local start
  start=$(date +%s%N)
  kill -TERM "$pid"
  (sleep 4; kill -KILL "$pid" 2> /dev/null) &
  local killer=$!
  local rc=0
  wait "$pid" || rc=$?
  local ms=$((($(date +%s%N) - start) / 1000000))
  kill "$killer" 2> /dev/null || true
  wait "$killer" 2> /dev/null || true
  echo "$name: exit $rc, ${ms} ms after SIGTERM"
  if [ "$rc" -ne 3 ] || [ "$ms" -gt 4000 ]; then
    cat "$name.out"
    echo "FAIL: $name must exit 3 within 4 s of SIGTERM" >&2
    exit 1
  fi
  grep -q 'interrupted by shutdown request' "$name.out"
}

term_after_1s collect collect --problem LU --machine Westmere --nmax 200 \
  --seed 7 --faults hang:0.5,hang-stall:30 --retries 0 --timeout 10 \
  --threads 1 --checkpoint ck.csv --ckpt-every 1
term_after_1s experiment experiment --problem LU \
  --pairs Westmere:Sandybridge --nmax 40 --seed 7 \
  --faults hang:0.3,hang-stall:30 --run-dir run
echo "hang shutdown OK"
