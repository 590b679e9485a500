#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tpch-cold --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
