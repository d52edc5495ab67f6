#!/usr/bin/env bash
# Entry point named in BENCHMARK.json.  It builds the benchmark from source
# inside the checkout (build cache, module path and toolchain settings all
# under .bench_build, nothing in $HOME) and runs it with the arguments given:
#
#   bash benchmarks/run.sh --workload router_get --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmarks/run.sh: no go.mod in $PWD: the program under test is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
# The go command starts a detached telemetry child the first time it sees a
# new config directory; it would outlive the run.  Mode "off" stops that.
mkdir -p "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/benchmarks" ./benchmarks
exec "$build/benchmarks" "$@"
