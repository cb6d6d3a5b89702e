#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it.  Arguments
# go to perfbench/main.exe:
#   bash perfbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh props --seed N --seed2 M
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root: dune-project and lib/ are missing" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
