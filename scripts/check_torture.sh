#!/bin/sh
# Torture-harness gate.
#
# 1. The default litmus smoke grid — every shape x {stache, dirnnb} x
#    {perfect, drop 5%} x 8 seeds, schedules perturbed — must report zero
#    SC violations.
# 2. The guarded sabotage knob (TT_SABOTAGE=1 breaks Stache's
#    invalidation handler) must make the same grid fail, and the harness
#    must shrink the first failure to a runnable reproducer artifact.
# 3. Replaying that artifact must reproduce the recorded violation kind
#    deterministically (exit 0), proving the whole record/shrink/replay
#    loop end to end.
set -eu
cd "$(dirname "$0")/.."

dune build bin/tt.exe
TT=_build/default/bin/tt.exe

echo "== torture smoke grid =="
"$TT" torture --smoke

repro=$(mktemp /tmp/tt-torture-repro.XXXXXX)
trap 'rm -f "$repro"' EXIT

echo "== sabotaged grid must be caught and shrunk =="
if TT_SABOTAGE=1 "$TT" torture --smoke --out "$repro"; then
  echo "FAIL: sabotaged protocol passed the torture grid" >&2
  exit 1
fi
if [ ! -s "$repro" ]; then
  echo "FAIL: no reproducer artifact written" >&2
  exit 1
fi

echo "== shrunk artifact must replay to the same violation =="
"$TT" torture --replay "$repro"

echo "torture gate: clean grids pass, sabotage is caught, shrunk, and replays"
