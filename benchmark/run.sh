#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from the checkout
# it stands in and runs it with the arguments given. Everything the Go
# toolchain writes (build cache, temporary files, the binary) stays
# inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
