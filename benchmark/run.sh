#!/usr/bin/env bash
# The benchmark's one command: build the harness from source inside the
# checkout and run it with the arguments given.
#
#   bash benchmark/run.sh --workload rpc_sequential --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh -seed 7            # every workload, each run in a fresh process
#
# Everything the build writes stays under benchmark/out/ (ignored): the Go
# build cache is pointed there, so the first run in a fresh checkout also
# compiles the standard library (about 20 s) and later runs reuse it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/out/build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
