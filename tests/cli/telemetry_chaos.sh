#!/usr/bin/env bash
# Live-telemetry chaos test: the run telemetry trio under SIGKILL.
#
# Start a journaled experiment with telemetry on (metrics time-series —
# the heartbeat `status` reads — and flight recorder) and a debug-level
# event log, then:
#
#   1. invoke `status --run-dir` against the LIVE run (read-only, safe
#      concurrently) and require RUNNING with exit 0;
#   2. SIGKILL the run and require both telemetry files to have
#      survived, with the flight-recorder dump's event lines forming a
#      contiguous slice of events.jsonl (same serialisation both sides —
#      the dump really is the tail of the log at dump time);
#   3. require `status` to call the run DEAD (exit 2) and print the
#      resume hint;
#   4. resume, and require the per-pid `seq` numbers in the time-series
#      to be monotone within each segment with >= 2 distinct pids (the
#      kill+resume is visible in the data), the last row to carry the
#      runner's `run.evals_total` gauge, and a final COMPLETE status with
#      exit 0.
#
# Usage: telemetry_chaos.sh <portatune_cli> <work-dir>
set -euo pipefail

CLI=$(realpath "$1")
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

RUN=$PWD/run
ARGS=(experiment --problem LU --pairs Westmere:Sandybridge,Westmere:Power7
      --nmax 40 --seed 7 --slow 0.02 --ckpt-every 5 --threads 1
      --telemetry-every 0.25 --log-level debug
      --log-json "$RUN/events.jsonl")

"$CLI" "${ARGS[@]}" --run-dir "$RUN" &
pid=$!
sleep 2

# Status of the live run: RUNNING, exit 0, and it must not perturb the
# run (the owning process keeps going — read-only by construction).
"$CLI" status --run-dir "$RUN" > live_status
grep -q 'RUNNING' live_status

kill -KILL "$pid" 2> /dev/null || true
wait "$pid" || true

# SIGKILL gave the process no chance to clean up: the telemetry files
# must already be on disk from the periodic dumps and appends.
test -s "$RUN/flight_recorder.jsonl"
test -s "$RUN/metrics_timeseries.jsonl"

# The dump's event lines (everything after the header) must be a
# contiguous slice of the event log: the recorder flushes the log sink
# before dumping, and both serialise events identically.
tail -n +2 "$RUN/flight_recorder.jsonl" > dump_events
nev=$(wc -l < dump_events)
test "$nev" -ge 1
first=$(head -n 1 dump_events)
lineno=$(grep -nF -- "$first" "$RUN/events.jsonl" | head -n 1 | cut -d: -f1)
test -n "$lineno"
sed -n "${lineno},$((lineno + nev - 1))p" "$RUN/events.jsonl" > log_slice
diff dump_events log_slice

# The dead run: stale heartbeat -> DEAD, exit 2, resume hint printed.
# (Let the last pre-kill heartbeat age past the staleness window first.)
sleep 1
set +e
"$CLI" status --run-dir "$RUN" --stale-after 0.5 > dead_status
rc=$?
set -e
test "$rc" -eq 2
grep -q 'DEAD' dead_status
grep -q -- '--resume' dead_status

# Resume to completion, then the final status: COMPLETE, exit 0.
"$CLI" "${ARGS[@]}" --resume "$RUN"
"$CLI" status --run-dir "$RUN" > final_status
grep -q 'COMPLETE' final_status

# Time-series integrity across the kill: within each process segment the
# seq numbers count 0, 1, 2, ... without gaps, and the kill+resume shows
# up as (at least) two distinct pids.
awk '
  match($0, /"seq":[0-9]+/) {
    seq = substr($0, RSTART + 6, RLENGTH - 6) + 0
    if (!match($0, /"pid":[0-9]+/)) next
    pid = substr($0, RSTART + 6, RLENGTH - 6) + 0
    if (pid in last) {
      if (seq != last[pid] + 1) {
        print "seq gap for pid " pid ": " last[pid] " -> " seq
        exit 1
      }
    } else if (seq != 0) {
      print "segment for pid " pid " starts at seq " seq ", not 0"
      exit 1
    }
    last[pid] = seq
    pids[pid] = 1
  }
  END {
    n = 0
    for (p in pids) n++
    if (n < 2) { print "expected >= 2 pids in time-series, saw " n; exit 1 }
  }
' "$RUN/metrics_timeseries.jsonl"

# The last row carries the budget `status` measures progress against:
# 2 cells x 6 phases x 40 evaluations.
tail -n 1 "$RUN/metrics_timeseries.jsonl" | python3 -c '
import json, sys
row = json.loads(sys.stdin.read())
assert row["gauges"]["run.evals_total"] == 480, row["gauges"]
'

echo "telemetry chaos OK"
