#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (--workload, --seed, --seconds, --trace). Everything the
# build writes (binary, Go build cache, temporary files) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod at $PWD: the benchmark needs the flint module it measures" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry under the user's configuration
# directory and, with telemetry on or local, starts a detached child of
# itself that outlives it. Point it inside the checkout and turn it off, so
# that no process is left behind.
export XDG_CONFIG_HOME="$build/config"
echo off >"$build/config/go/telemetry/mode"
export GOTOOLCHAIN=local CGO_ENABLED=0
go build -buildvcs=false -o "$build/flint-bench" ./bench
exec "$build/flint-bench" "$@"
