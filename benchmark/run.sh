#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it, passing
# every argument on. Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload mesh_loaded --seed 1 --seconds 8 --trace 0
#
# Everything the build writes (binary and Go build cache) goes under
# .bench_build/ in the checkout, so nothing outside it is touched and a
# second run rebuilds only what changed.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
