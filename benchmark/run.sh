#!/usr/bin/env bash
# Builds the benchmark if it is stale and runs it from the root of the
# checkout. Everything it writes (Go build cache, binary, datasets,
# sockets, trace.json) stays under .bench_build in the checkout.
#
#   bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local GOWORK=off
# The go command keeps counters in the user's configuration directory.
export XDG_CONFIG_HOME="$root/.bench_build/config"
(cd "$here" && go build -o "$root/.bench_build/spio-benchmark" .)
cd "$root"
exec "$root/.bench_build/spio-benchmark" "$@"
