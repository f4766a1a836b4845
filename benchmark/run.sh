#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json: builds the benchmark from the
# checkout's own source into .bench_build/ (build cache and scratch space
# included, so nothing is written outside the checkout) and runs it with
# the arguments given. The first call in a checkout compiles the standard
# library too; later calls find everything up to date.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
