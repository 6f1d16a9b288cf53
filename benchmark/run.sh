#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it. Everything the build writes stays under .bench_build in that checkout.
#
#   bash benchmark/run.sh --workload tcp_mix --seed 1 --seconds 16 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "benchmark/run.sh: run from the root of a MobiEyes checkout: the benchmark is built against ./internal" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/mobieyes-benchmark" ./benchmark
exec "$build/mobieyes-benchmark" "$@"
