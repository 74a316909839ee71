#!/bin/sh
# Scaling smoke gate: a fast 64-node sweep of two Fig. 3 apps on both
# systems must run to completion.
set -eu
cd "$(dirname "$0")/.."

dune build bin/tt.exe

echo "== 64-node smoke sweep =="
_build/default/bin/tt.exe scale --apps em3d,ocean -n 64 --scale 0.1

echo "scaling smoke sweep completed"
