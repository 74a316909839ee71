#!/bin/sh
# Simulated-output snapshot for perf-only changes.
#
# Usage: scripts/same_bits.sh OUTDIR
#
# Builds bin/tt.exe from this checkout and writes one file per command
# below into OUTDIR: tt run --stats --verify for em3d, ocean and barnes on
# dirnnb, stache and update at 8 nodes; tt tables; fig3 and fig4 at small
# scale; the torture smoke and table runs; and the recovery sweep.  Run it
# on two checkouts and compare with `diff -r OUTDIR1 OUTDIR2`: a change
# that only touches host time must leave every file byte-identical.
# Takes a few minutes; it is not part of `dune runtest`.
set -eu
if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
dune build bin/tt.exe
tt="$(pwd)/_build/default/bin/tt.exe"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
# tt runs inside OUTDIR, so any file a command leaves behind is compared too
cd "$out"

snap() {
  name=$1
  shift
  echo "== $name"
  "$tt" "$@" > "$name.txt" 2>&1
}

for app in em3d ocean barnes; do
  for machine in dirnnb stache update; do
    snap "run-$app-$machine" run "$app" --machine "$machine" --nodes 8 \
      --stats --verify
  done
done
snap tables tables
snap fig3 fig3 --scale 0.05 --nodes 8
snap fig4 fig4 --scale 0.1 --nodes 8
snap torture-smoke torture --smoke
snap torture-table torture --table --iters 2
snap recover recover --scale 0.1
echo "wrote $out"
