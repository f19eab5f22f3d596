#!/bin/sh
# Build the performance ledger from this checkout's sources and run it.
# Run from the repository root; every argument goes to ledger.exe, e.g.
#   sh bench/ledger/run.sh --workload sweep --seed 0 --seconds 20 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/ledger/dune ]; then
  echo "run.sh: run from the root of an occamy checkout" >&2
  exit 2
fi
# Dune's shared cache lives outside the checkout; the ledger builds inside it.
export DUNE_CACHE=disabled
dune build --root . ./bench/ledger/ledger.exe >&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
