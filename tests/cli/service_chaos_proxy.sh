#!/usr/bin/env bash
# Exactly-once under transport chaos, process-level.
#
# The loadgen drives the daemon exclusively through the chaos proxy
# (seeded delays, torn replies, mid-reply hangups, blackholes) while the
# daemon itself is SIGTERM'd and restarted mid-run. The claims proven:
#   * the loadgen exits 0 with its PASS line — client-side op totals
#     equal the server.op.* counters exactly, across both the transport
#     faults and the daemon restart (the protocol state file carries the
#     reply cache and counters over the boundary);
#   * the killed daemon exits 3 and leaves protocol_state.json;
#   * a session abandoned past --lease-seconds is checkpointed and
#     evicted (server.sessions_reclaimed counts it, `status` shows no
#     live sessions — zero leaks), yet `resume` brings it back with its
#     progress intact;
#   * a store entry corrupted on disk is quarantined at the next daemon
#     start — the daemon serves, `status` reports the quarantine, and
#     the damaged entry sits in <store>/quarantine/ for the operator.
# On failure the work dir (daemon logs, loadgen output, telemetry) is
# the artifact; CI uploads it.
#
# Usage: service_chaos_proxy.sh <portatune_cli> <portatune_loadgen>
#                               <work-dir>
set -euo pipefail

CLI=$(realpath "$1")
LOADGEN=$(realpath "$2")
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SOCK=$PWD/pt.sock
DATA=$PWD/service_data

# Whatever happens, leave no daemon or loadgen behind: each pid is
# cleared once it has been waited for, so only live children are killed.
daemon=
loadgen=
cleanup() {
  for pid in $loadgen $daemon; do kill -KILL "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

call() { "$CLI" call --socket "$SOCK" --request "$1"; }

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  echo "service socket never appeared" >&2
  return 1
}

serve() { # serve <logfile> [extra flags...]
  local log=$1
  shift
  "$CLI" serve --socket "$SOCK" --data-dir "$DATA" \
    --log-json events.jsonl --quiet "$@" >"$log" 2>&1 &
  daemon=$!
  wait_for_socket
}

# --- phase 1: chaos load with a daemon restart in the middle -----------
serve serve1.log --lease-seconds 2
"$LOADGEN" --socket "$SOCK" --clients 3 --sessions 2 --steps 6 \
  --garbage 0 --max-evals 60 --deadline 60 \
  --chaos "delay=0.15,delay-s=0.03,tear=0.1,hangup=0.08,blackhole=0.05,hold=0.3" \
  --chaos-seed 7 --out loadgen_out >loadgen.log 2>&1 &
loadgen=$!

# Restart once the run has made progress: the first step is served
# (`stats` on the daemon's own socket; the loadgen's counter cross-check
# leaves stats out). The run must still be in flight, or the restart
# would prove nothing.
stepped=
for _ in $(seq 1 600); do
  call '{"op":"stats"}' >stats-restart.json 2>/dev/null || true
  if python3 - <<'EOF'
import json, sys
try:
    s = json.load(open("stats-restart.json"))
except ValueError:
    sys.exit(1)
sys.exit(0 if s["metrics"]["counters"].get("server.op.step.count", 0) >= 1
         else 1)
EOF
  then
    stepped=1
    break
  fi
  sleep 0.05
done
test -n "$stepped"
kill -0 "$loadgen"
kill -TERM "$daemon"
rc=0
wait "$daemon" || rc=$?
daemon=
test "$rc" -eq 3
test -s "$DATA/protocol_state.json"

serve serve2.log --lease-seconds 2
rc=0
wait "$loadgen" || rc=$?
loadgen=
cat loadgen.log
test "$rc" -eq 0
grep -q '^PASS' loadgen.log           # exact counter cross-check held
grep -q '^chaos: ' loadgen.log        # the proxy really injected faults

# --- phase 2: lease reclaim of an abandoned session --------------------
call '{"op":"open","id":"abandoned","problem":"LU","machine":"Westmere","max_evals":30,"seed":5}' \
  | grep -q '"ok":true'
call '{"op":"step","id":"abandoned","n":3}' | grep -q '"evals":3'
# Walk away past the lease: the sweep must checkpoint + evict it.
for _ in $(seq 1 100); do
  call '{"op":"status"}' >status.json
  python3 - <<'EOF' && break || sleep 0.2
import json
s = json.load(open("status.json"))
live = [x for x in s["sessions"] if not x["closed"]]
raise SystemExit(0 if not live else 1)
EOF
done
call '{"op":"stats"}' >stats.json
python3 - <<'EOF'
import json
s = json.load(open("stats.json"))
counters = s["metrics"]["counters"]
assert counters.get("server.sessions_reclaimed", 0) >= 1, counters
assert s["server"]["sessions_open"] == 0, s["server"]  # zero leaks
EOF
# ...and the reclaim lost nothing: resume picks the session back up at
# eval 3, so one more step lands on 4.
call '{"op":"resume","id":"abandoned"}' | grep -q '"ok":true'
call '{"op":"step","id":"abandoned","n":1}' | grep -q '"evals":4'
call '{"op":"close","id":"abandoned"}' | grep -q '"ok":true'

call '{"op":"shutdown"}' | grep -q '"ok":true'
rc=0
wait "$daemon" || rc=$?
daemon=
test "$rc" -eq 0

# --- phase 3: corrupted store entry is quarantined at startup ----------
entry=$(ls "$DATA"/store/entries | head -1)
test -n "$entry"
echo "bit rot" > "$DATA/store/entries/$entry/trace.csv"
serve serve3.log
call '{"op":"status"}' >status-quarantine.json
python3 - <<EOF
import json
s = json.load(open("status-quarantine.json"))
assert s["store"]["quarantined"] >= 1, s["store"]
EOF
test -d "$DATA/store/quarantine/$entry"
test ! -e "$DATA/store/entries/$entry"
call '{"op":"shutdown"}' | grep -q '"ok":true'
rc=0
wait "$daemon" || rc=$?
daemon=
test "$rc" -eq 0

echo "service chaos proxy OK"
