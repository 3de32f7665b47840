#!/usr/bin/env bash
# Service observability under multi-client load.
#
# Start the daemon with the full observability surface armed (JSONL
# events at debug, Chrome trace, metrics snapshot, telemetry trio under
# --data-dir), hammer it with the multi-process loadgen including
# injected garbage lines, and then prove the whole pipeline end to end:
#   * loadgen PASSes — client-side op totals match the server.op.*
#     counters exactly, garbage == server.op.invalid;
#   * `status --socket` renders live per-op rates and percentiles;
#   * after a protocol shutdown (exit 0) the daemon leaves events.jsonl /
#     trace.json / metrics.json plus the time-series and flight-recorder
#     files, the time-series' last row (the daemon's final heartbeat)
#     agrees with the load that was applied, the event log has zero
#     orphan spans, and the Chrome trace contains closed request spans
#     with the wire -> session -> eval parent chain;
#   * a SIGTERMed daemon (exit 3) emits the same artifacts.
#
# Usage: service_load.sh <portatune_cli> <portatune_loadgen>
#                        <portatune_report> <work-dir>
set -euo pipefail

CLI=$(realpath "$1")
LOADGEN=$(realpath "$2")
REPORT=$(realpath "$3")
WORK=$4
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SOCK=$PWD/pt.sock
DATA=$PWD/service_data

call() { "$CLI" call --socket "$SOCK" --request "$1"; }

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  echo "service socket never appeared" >&2
  return 1
}

# --- daemon with every observability output armed ---------------------
"$CLI" serve --socket "$SOCK" --data-dir "$DATA" \
  --log-json events.jsonl --log-level debug \
  --chrome-trace trace.json --metrics-out metrics.json \
  --telemetry-every 0.2 --quiet >serve.log 2>&1 &
daemon=$!
wait_for_socket

# --- multi-client load with fault injection ---------------------------
"$LOADGEN" --socket "$SOCK" --clients 3 --sessions 2 --steps 4 \
  --garbage 3 --max-evals 30 --out loadgen_out | tee loadgen.log
grep -q '^PASS' loadgen.log
grep -q 'p99' loadgen.log  # tail latency was reported

# --- live status over the socket --------------------------------------
"$CLI" status --socket "$SOCK" --interval 0.2 | tee status.log
grep -q 'tuning service on' status.log
grep -q 'p99 ms' status.log
grep -qE '^\s+step\s' status.log  # the load shows up as per-op rows

# --- protocol shutdown: exit 0, artifacts written ---------------------
call '{"op":"shutdown"}' | grep -q '"ok":true'
rc=0
wait "$daemon" || rc=$?
test "$rc" -eq 0
for f in events.jsonl trace.json metrics.json \
         "$DATA/metrics_timeseries.jsonl" "$DATA/flight_recorder.jsonl"; do
  test -s "$f"
done

# --- heartbeat: the time-series' last row, written at exit -------------
python3 - <<'EOF'
import json
lines = open("service_data/metrics_timeseries.jsonl").read().splitlines()
s = json.loads(lines[-1])
assert s["pid"] > 0, s
c = s["counters"]
# 3 clients x 2 sessions x 4 steps of load really registered.
assert c["server.op.step.count"] == 24, c
assert c["server.op.invalid.count"] == 9, c
step = s["histograms"]["server.op.step.latency"]
assert step["p99"] >= step["p50"], step
assert c["server.requests"] > 0, c
EOF

# The event log's span tree is complete: no orphans.
"$REPORT" --log events.jsonl | tee report.log
grep -q 'orphans 0' report.log

# The Chrome trace carries closed request spans whose parent chain
# crosses the wire -> session -> eval boundary.
python3 - <<'EOF'
import json
evs = [json.loads(l) for l in open("events.jsonl")]
by_span = {e["span"]: e for e in evs if e.get("span", 0)}
# Closed request spans exist for the load's ops.
steps = [e for e in evs if e["name"] == "server.op.step"]
assert len(steps) == 24, len(steps)
assert all(e.get("dur_s", -1) >= 0 for e in steps), "request spans must close"
assert all(by_span[e["parent"]]["name"] == "server.request"
           for e in steps), "op spans must nest under the wire span"
# Every eval chains up to a request span.
evals = [e for e in evs if e["name"] == "eval"]
assert evals, "debug-level eval events expected"
for e in evals:
    names = []
    p = e.get("parent", 0)
    while p and p in by_span:
        names.append(by_span[p]["name"])
        p = by_span[p].get("parent", 0)
    assert "server.request" in names, "eval not rooted in a request: %r" % e
# And the trace file itself is sound.
trace = json.load(open("trace.json"))
events = trace["traceEvents"] if isinstance(trace, dict) else trace
assert any(ev.get("name") == "server.op.step" and ev.get("ph") == "X"
           for ev in events), "no complete request slices in chrome trace"
EOF

# Metrics snapshot has the per-op surface.
python3 - <<'EOF'
import json
m = json.load(open("metrics.json"))
assert m["counters"]["server.op.step.count"] == 24, m["counters"]
assert m["counters"]["server.op.invalid.count"] == 9, m["counters"]
assert m["counters"]["server.clients_accepted"] >= 3, m["counters"]
assert "server.op.step.latency" in m["histograms"], m["histograms"].keys()
assert "server.poll.wait_seconds" in m["histograms"], m["histograms"].keys()
EOF

# --- SIGTERM path: exit 3, same artifacts ------------------------------
rm -f events.jsonl trace.json metrics.json
"$CLI" serve --socket "$SOCK" --data-dir "$DATA" \
  --log-json events.jsonl --chrome-trace trace.json \
  --metrics-out metrics.json --telemetry-every 0.2 --quiet \
  >serve2.log 2>&1 &
daemon=$!
wait_for_socket
call '{"op":"status"}' | grep -q '"ok":true'
kill -TERM "$daemon"
rc=0
wait "$daemon" || rc=$?
test "$rc" -eq 3
for f in events.jsonl trace.json metrics.json; do
  test -s "$f"
done
python3 -c 'import json; json.load(open("trace.json"))'

# A dead socket is a clear exit-2 diagnosis, not a hang.
rc=0
"$CLI" status --socket "$SOCK" >status-dead.log 2>&1 || rc=$?
test "$rc" -eq 2
grep -q 'unreachable' status-dead.log

echo "service load observability OK"
