#!/usr/bin/env bash
# Build the chronicle server and the benchmark from this checkout, then
# run one workload:
#
#   bash perfbench/run.sh --workload ingest|fanout|mixed --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the last line of standard output
# is the benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/chronicle_cli.ml ]; then
  echo "perfbench: not a chronicle checkout (no dune-project or bin/chronicle_cli.ml)" >&2
  exit 2
fi
# the shared build cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . -j 2 ./bin/chronicle_cli.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --exe _build/default/bin/chronicle_cli.exe "$@"
