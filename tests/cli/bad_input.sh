#!/usr/bin/env bash
# ctest script: bad input from the command line or from disk is an error
# (exit 1 with an `error:` line), never an abort (exit 134). The forged
# files carry a valid checksum footer over one malformed field: the
# footer detects corruption but authenticates nothing, so the parsers
# behind `transfer --from`, `collect --resume` and `status --run-dir`
# must reject the field themselves.
#
# Usage: bad_input.sh <portatune_cli> <work dir>
set -euo pipefail
CLI=$1
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

expect_error() {  # <what> <command...>
  local what=$1 rc=0
  shift
  "$@" >out.txt 2>err.txt || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q '^error: ' err.txt; then
    echo "FAIL: $what exited $rc, want 1 with an error line:"
    cat err.txt
    exit 1
  fi
}

# Rewrite one field of a checksummed file, then append a valid footer.
forge() {  # <file> draw_index|cell_checksum|cell_count
  python3 - "$1" "$2" <<'PY'
import sys
path, field = sys.argv[1], sys.argv[2]
text = open(path).read()
lines = text[:text.rfind("# checksum,")].split("\n")
if field == "draw_index":  # the first data row's draw_index cell
    i = next(i for i, l in enumerate(lines) if l[:1].isdigit())
    cells = lines[i].split(",")
    cells[-2] = "abc"
    lines[i] = ",".join(cells)
elif field == "cell_checksum":  # the first journal row's checksum
    state, _, label = lines[2].split(",", 2)
    lines[2] = ",".join([state, "z" * 16, label])
else:  # the journal magic line's cell count
    lines[0] = lines[0].rsplit(",", 1)[0] + ",18446744073709551615"
payload = "\n".join(lines).encode()
h = 0xCBF29CE484222325  # FNV-1a, as support/hash.hpp
for b in payload:
    h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
open(path, "wb").write(payload + b"# checksum,%016x\n" % h)
PY
}

expect_error "collect --nmax abc" "$CLI" collect --nmax abc
grep -q -- '--nmax' err.txt || { echo "FAIL: --nmax not named"; exit 1; }

"$CLI" collect --problem LU --machine Westmere --nmax 20 --quiet \
  --checkpoint ck.csv --out ta.csv >/dev/null
forge ta.csv draw_index
forge ck.csv draw_index
expect_error "transfer --from" "$CLI" transfer --problem LU \
  --source Westmere --target Sandybridge --nmax 10 --from ta.csv
expect_error "collect --resume" "$CLI" collect --problem LU \
  --machine Westmere --nmax 30 --resume ck.csv

"$CLI" experiment --problem LU --pairs Westmere:Sandybridge --nmax 10 \
  --run-dir run1 --telemetry-every 0 >/dev/null
cp -r run1 run2
forge run1/journal.csv cell_checksum
forge run2/journal.csv cell_count
expect_error "status (cell checksum)" "$CLI" status --run-dir run1
expect_error "status (cell count)" "$CLI" status --run-dir run2
echo "PASS: every bad input exits 1 with an error line"
