#!/bin/sh
# Determinism gate for the protocol zoo and the adaptive per-page
# switcher: a compact shootout grid (tt proto) run by the sequential
# driver and by 4 worker domains must print byte-identical tables and
# JSON cells (same guarantee as the scaling sweep).
set -eu
cd "$(dirname "$0")/.."

dune build bin/tt.exe

echo "== shootout determinism across worker domains =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
grid="--apps synthmig,synthpc --protos stache,migratory,widerep,adaptive -n 8"
for d in 1 4; do
  TT_BENCH_JSON="$tmpdir/cells-$d.json" \
    dune exec bin/tt.exe -- proto $grid --domains "$d" \
    | grep -v 'host CPU\|parallel:\|wrote shootout cells' > "$tmpdir/table-$d.txt"
done
diff -u "$tmpdir/table-1.txt" "$tmpdir/table-4.txt"
diff -u "$tmpdir/cells-1.json" "$tmpdir/cells-4.json"

echo "protocols: shootout identical on 1 and 4 domains"
