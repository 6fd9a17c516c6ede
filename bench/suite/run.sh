#!/usr/bin/env bash
# Build dkbench and dkindex-server from the checkout this script sits
# in, then run dkbench with the given arguments (see README.md), e.g.
#   bash bench/suite/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# JSON result.  Scratch data and traces go under _build/dkbench.
set -eu
cd "$(dirname "$0")/../.."
# Build inside the checkout only: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/suite/dkbench.exe bin/server_main.exe 1>&2
exec _build/default/bench/suite/dkbench.exe --server _build/default/bin/server_main.exe \
  --work _build/dkbench/work "$@"
