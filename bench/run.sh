#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# The Go build cache and the binary live under .bench_build so that
# nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
