#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source and
# run it, passing every argument through, e.g.
#
#   bash benchmark/run.sh --workload query_hot --seed 1 --seconds 20 --trace 0
#
# It is `go run ./benchmark` with one difference: the binary, Go's build
# cache and its temporary files all live under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. The first run in
# a checkout compiles the standard library into that cache (about 20 s on
# two cores); later runs reuse it.
#
# No process outlives this script. The go command's only detached child is
# its telemetry sidecar, which it starts whenever its config directory has
# no fresh upload token - always, in a new checkout - and does not wait
# for. The mode file below turns telemetry off in the private config
# directory before go first runs, so the sidecar is never started; and
# where the program's module is missing, go is not started at all.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the program under test is not in this checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -o "$build/xkw-benchmark" ./benchmark
exec "$build/xkw-benchmark" "$@"
