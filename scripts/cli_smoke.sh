#!/usr/bin/env bash
# End-to-end smoke test of dess_cli over a snapshot directory: build a tiny
# dataset into a directory, then drive info, render, query (with the
# rendered OBJ of shape 0, which must rank itself first), ingest (info
# must then count one more shape) and browse. Registered as the
# `dess_cli_smoke` ctest; runnable standalone.
#
# Usage: scripts/cli_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/dess_cli"

if [[ ! -x "$CLI" ]]; then
  echo "cli_smoke: $CLI not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
DB="$WORK/parts.db"

fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

shapes() {
  "$CLI" info "$DB" | sed -n 's/^  shapes: \([0-9][0-9]*\),.*/\1/p'
}

# A trailing separator must name the same directory.
"$CLI" build "$DB/" --groups 2 --noise 1 --seed 3
[[ -f "$DB/MANIFEST" ]] || fail "build wrote no snapshot MANIFEST"

BEFORE="$(shapes)"
[[ -n "$BEFORE" && "$BEFORE" -gt 0 ]] || fail "info reports no shapes"

"$CLI" render "$DB" 0 "$WORK/view" > "$WORK/render.txt"
OBJ="$(sed -n 's/^wrote \(.*\.obj\)$/\1/p' "$WORK/render.txt")"
[[ -f "$OBJ" ]] || fail "render wrote no OBJ"

"$CLI" query "$DB" "$OBJ" 3 > "$WORK/query.txt"
cat "$WORK/query.txt"
sed -n '2p' "$WORK/query.txt" | grep -q '^  #0 .*sim=1\.000$' ||
  fail "the rendered shape 0 does not rank itself first"

"$CLI" ingest "$DB" "$OBJ" 0
AFTER="$(shapes)"
[[ "$AFTER" -eq $((BEFORE + 1)) ]] ||
  fail "info reports $AFTER shapes after one ingest into $BEFORE"

"$CLI" browse "$DB" > "$WORK/browse.txt"
grep -q "^+ $AFTER shapes" "$WORK/browse.txt" ||
  fail "browse root does not hold all $AFTER shapes"

echo "cli_smoke: ok ($BEFORE -> $AFTER shapes)"
