#!/bin/sh
# Run every gate in sequence: the grid-cell parallelism gate (the full
# test suite with the parallel harness off and on, plus byte-identical
# sweep tables), the 64-node scaling smoke, the torture grid with its
# sabotage/shrink/replay loop, and the recover-grid and shootout
# determinism diffs.  Any failure aborts the chain.
set -eu
cd "$(dirname "$0")"

for gate in check_scaling.sh check_torture.sh check_parallel.sh \
  check_recovery.sh check_protocols.sh; do
  echo ""
  echo "==================== $gate ===================="
  sh "$gate"
done

echo ""
echo "all gates green"
