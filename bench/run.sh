#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the caller's
# arguments. Go's build cache, module cache and telemetry counters go under
# .bench_build/ too, so nothing is written outside the checkout. Run from
# the repository root:
#   bash bench/run.sh --workload serve-dash --seed 1 --seconds 12 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/skipper-bench" .
if [ -d "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
	export BENCH_COMMIT
fi
exec "$build/skipper-bench" "$@"
