#!/bin/sh
# Determinism gate for crash-stop recovery: two sweeps of the recover grid
# with the same seed must print byte-identical tables.
set -eu
cd "$(dirname "$0")/.."

dune build bin/tt.exe

echo "== recover grid determinism =="
out1=$(dune exec bin/tt.exe -- recover --apps ocean --victims 3)
out2=$(dune exec bin/tt.exe -- recover --apps ocean --victims 3)
if [ "$out1" != "$out2" ]; then
  echo "FATAL: two identical recover sweeps printed different tables" >&2
  exit 1
fi

echo "recovery: recover grid deterministic"
