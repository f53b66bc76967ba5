#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from the checkout's
# own sources into benchmark/out (Go build cache included, so nothing is read
# or written outside the checkout) and runs it with the driver's arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/out
export GOCACHE="$PWD/benchmark/out/go-cache" GOTOOLCHAIN=local
go build -o benchmark/out/dlion-benchmark ./benchmark
exec benchmark/out/dlion-benchmark "$@"
