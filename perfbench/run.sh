#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-point --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# workloads' scratch directories, traces and result records.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
