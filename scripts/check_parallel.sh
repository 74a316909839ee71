#!/bin/sh
# Grid-cell parallelism gate (Tt_sim.Domains.map).
#
# 1. Runs the full test suite under TT_DOMAINS=0 and TT_DOMAINS=4 so the
#    pinned cycle rows and torture replays hold with the parallel harness
#    both off and on.
# 2. Diffs deterministic CLI outputs byte for byte across TT_DOMAINS
#    values: the scale sweep table and a fault-sweep table.  Only
#    wall-clock may differ; the parallel note goes to stderr.
# 3. On hosts with >= 4 cores, additionally requires the parallel scale
#    sweep to beat the sequential one by TT_CHECK_SPEEDUP_MIN (default
#    1.5x; the ISSUE target of 2x needs 4 idle cores).  Skipped on
#    smaller hosts — determinism is always asserted, speedup only where
#    the hardware can show it.
set -eu
cd "$(dirname "$0")/.."

echo "== full suite, TT_DOMAINS=0 =="
TT_DOMAINS=0 dune runtest --force

echo "== full suite, TT_DOMAINS=4 =="
TT_DOMAINS=4 dune runtest --force

dune build bin/tt.exe
TT=_build/default/bin/tt.exe

seq_out=$(mktemp /tmp/tt-par-seq.XXXXXX)
par_out=$(mktemp /tmp/tt-par-par.XXXXXX)
trap 'rm -f "$seq_out" "$par_out"' EXIT

echo "== scale sweep, TT_DOMAINS=0 vs TT_DOMAINS=4 =="
t0=$(date +%s)
TT_DOMAINS=0 "$TT" scale --apps em3d,ocean -n 64,128 --scale 0.1 \
  | grep -v "host CPU" >"$seq_out"
t1=$(date +%s)
TT_DOMAINS=4 "$TT" scale --apps em3d,ocean -n 64,128 --scale 0.1 \
  2>/dev/null | grep -v "host CPU" >"$par_out"
t2=$(date +%s)
cat "$seq_out"
diff -u "$seq_out" "$par_out"
seq_s=$((t1 - t0))
par_s=$((t2 - t1))
echo "(sequential ${seq_s}s wall, parallel ${par_s}s wall)"

echo "== fault sweep, TT_DOMAINS=0 vs TT_DOMAINS=4 =="
TT_DOMAINS=0 "$TT" faults --apps em3d,mp3d --drops 5 --seeds 1 -n 4 \
  --scale 0.1 >"$seq_out"
TT_DOMAINS=4 "$TT" faults --apps em3d,mp3d --drops 5 --seeds 1 -n 4 \
  --scale 0.1 2>/dev/null >"$par_out"
diff -u "$seq_out" "$par_out"

ncores=$( (nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null) || echo 1)
min=${TT_CHECK_SPEEDUP_MIN:-1.5}
if [ "$ncores" -ge 4 ]; then
  echo "== speedup gate ($ncores cores, require >= ${min}x) =="
  ok=$(awk -v s="$seq_s" -v p="$par_s" -v m="$min" \
    'BEGIN { print (p > 0 && s / p >= m) ? 1 : 0 }')
  if [ "$ok" != 1 ]; then
    echo "FAIL: parallel sweep took ${par_s}s vs sequential ${seq_s}s" \
      "(need ${min}x)"
    exit 1
  fi
  echo "speedup OK: ${seq_s}s -> ${par_s}s"
else
  echo "(speedup gate skipped: only $ncores core(s); determinism asserted)"
fi

echo "parallel parity: suites green both ways, tables identical"
