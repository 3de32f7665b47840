#!/usr/bin/env bash
# Process-level chaos test for the tuning service daemon.
#
# Start `portatune_cli serve`, drive two concurrent sessions over the
# Unix socket with `portatune_cli call`, then SIGTERM the daemon
# mid-session. The daemon must checkpoint every open session and exit
# with the resumable status code 3 (the same convention as the journaled
# experiment runner). A restarted daemon on the same --data-dir must
# resume both sessions at their checkpointed positions and run them to
# completion within the original budget; the store must end up holding
# both machines' published traces. A third daemon is SIGTERM'd while a
# warm open runs on a pool thread: it must deliver the open's reply, exit
# 3, and a fourth daemon must restore that session. Finally, `status` on
# a directory that is not a run directory must fail with exit code 2 and
# a clear message.
#
# Usage: service_chaos.sh <portatune_cli> <work-dir>
set -euo pipefail

CLI=$(realpath "$1")
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SOCK=$PWD/pt.sock
DATA=$PWD/service_data

call() { "$CLI" call --socket "$SOCK" --request "$1"; }
# For requests whose reply is *expected* to be an error: the client exits
# 1 on an {"ok":false} reply, which is the success case here.
call_expecting_error() { "$CLI" call --socket "$SOCK" --request "$1" || true; }

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  echo "service socket never appeared" >&2
  return 1
}

# --- first daemon: open two sessions, advance them partway ------------
"$CLI" serve --socket "$SOCK" --data-dir "$DATA" >serve1.log 2>&1 &
daemon=$!
wait_for_socket

call '{"op":"open","id":"alpha","problem":"LU","machine":"Westmere","max_evals":40,"seed":7}' | tee open-alpha.json
call '{"op":"open","id":"beta","problem":"LU","machine":"Sandybridge","max_evals":40,"seed":8}' | tee open-beta.json
grep -q '"ok":true' open-alpha.json
grep -q '"ok":true' open-beta.json

call '{"op":"step","id":"alpha","n":15}' | tee step-alpha.json
call '{"op":"step","id":"beta","n":10}' | tee step-beta.json
grep -q '"ok":true' step-alpha.json
grep -q '"ok":true' step-beta.json

# Errors come back as replies on a connection that stays usable.
call_expecting_error '{"op":"step","id":"no-such-session"}' \
  | grep -q '"ok":false'

# --- SIGTERM mid-session: checkpoint everything, exit 3 ---------------
kill -TERM "$daemon"
rc=0
wait "$daemon" || rc=$?
test "$rc" -eq 3  # "interrupted but resumable"
test ! -e "$SOCK"  # the socket file is cleaned up
for id in alpha beta; do
  test -s "$DATA/sessions/$id/meta.json"
  test -s "$DATA/sessions/$id/checkpoint.csv"
done

# --- second daemon: resume both sessions, run them out ----------------
"$CLI" serve --socket "$SOCK" --data-dir "$DATA" >serve2.log 2>&1 &
daemon=$!
wait_for_socket

for id in alpha beta; do
  call "{\"op\":\"resume\",\"id\":\"$id\"}" | tee "resume-$id.json"
  grep -q '"ok":true' "resume-$id.json"
done

# The resumed sessions continue from their checkpoints: the very first
# step already reports more total evals than it evaluated just now.
call '{"op":"step","id":"alpha","n":5}' | tee step2-alpha.json
grep -q '"ok":true' step2-alpha.json
python3 - <<'EOF'
import json
r = json.load(open("step2-alpha.json"))
assert r["ok"], r
assert r["evals"] > r["evaluated"], (
    "resume did not restore the checkpointed trace: %r" % r)
EOF

for id in alpha beta; do
  while :; do
    call "{\"op\":\"step\",\"id\":\"$id\",\"n\":10}" >step-loop.json
    grep -q '"ok":true' step-loop.json
    grep -q '"exhausted":true' step-loop.json && break
  done
  call "{\"op\":\"close\",\"id\":\"$id\"}" | grep -q '"ok":true'
done

# Both sessions completed within their original 40-eval budget and
# published their traces to the persistent store.
call '{"op":"status"}' | tee status.json
python3 - <<'EOF'
import json
s = json.load(open("status.json"))
assert s["ok"], s
sessions = {x["id"]: x for x in s["sessions"]}
for sid in ("alpha", "beta"):
    assert sessions[sid]["closed"], sessions[sid]
    assert sessions[sid]["evals"] == 40, sessions[sid]
assert s["store"]["entries"] == 2, s["store"]
EOF
test -s "$DATA/store/index.csv"

# Graceful protocol-level shutdown: exit 0 this time.
call '{"op":"shutdown"}' | grep -q '"ok":true'
rc=0
wait "$daemon" || rc=$?
test "$rc" -eq 0

# --- SIGTERM while an open runs on a pool thread -----------------------
# The daemon finishes the open and delivers its reply before it
# checkpoints and exits 3, so the session resumes after a restart.
"$CLI" serve --socket "$SOCK" --data-dir "$DATA" >serve3.log 2>&1 &
daemon=$!
wait_for_socket
opens() {
  call '{"op":"stats"}' | python3 -c \
    'import json,sys; print(int(json.load(sys.stdin)["metrics"]["counters"].get("server.op.open.count", 0)))'
}
opens_before=$(opens)
# Warm from the stored LU traces, ranking a 100 000-config pool.
call '{"op":"open","id":"gamma","problem":"LU","machine":"Power7","max_evals":40,"seed":9,"pool_size":100000}' \
  >open-gamma.json &
caller=$!
for _ in $(seq 1 500); do
  [ "$(opens)" -gt "$opens_before" ] && break  # the open has begun
  sleep 0.01
done
kill -TERM "$daemon"
rc=0
wait "$daemon" || rc=$?
test "$rc" -eq 3
wait "$caller"
grep -q '"ok":true' open-gamma.json
grep -q '"warm":true' open-gamma.json
test -s "$DATA/sessions/gamma/meta.json"

"$CLI" serve --socket "$SOCK" --data-dir "$DATA" >serve4.log 2>&1 &
daemon=$!
wait_for_socket
# The first op restores gamma from its checkpoint, warm as it opened.
call '{"op":"step","id":"gamma","n":5}' | tee step-gamma.json
python3 - <<'EOF2'
import json
r = json.load(open("step-gamma.json"))
assert r["ok"] and r["evals"] == 5, r
EOF2
call '{"op":"status"}' | python3 -c \
  'import json,sys; s=json.load(sys.stdin); assert [x["warm"] for x in s["sessions"] if x["id"]=="gamma"]==[True], s'
call '{"op":"shutdown"}' | grep -q '"ok":true'
rc=0
wait "$daemon" || rc=$?
test "$rc" -eq 0

# --- status on a non-run directory fails clearly with exit 2 ----------
mkdir -p not-a-run
rc=0
"$CLI" status --run-dir not-a-run >status-err.log 2>&1 || rc=$?
test "$rc" -eq 2
grep -q "not a run directory" status-err.log

echo "service chaos resumability OK"
