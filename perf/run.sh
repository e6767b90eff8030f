#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (build cache included, so nothing is written outside it) and
# runs it from the checkout's root with the driver's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off
go build -C "$root/perf" -o "$build/kdperf" .
cd "$root"
exec "$build/kdperf" "$@"
