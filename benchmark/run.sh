#!/usr/bin/env bash
# Builds the benchmark and the shipped cmd/serve binary from the current
# checkout into .bench_build/, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload search-g100 --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh compare .bench_build/results
#
# Every build output, Go cache and result file stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/serve || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the repository root: go.mod, cmd/serve and benchmark/ must all be present" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -o "$build/serve" ./cmd/serve
(cd benchmark && go build -o "$build/magma-bench" .)

if [[ "${1:-}" == "compare" ]]; then
	exec "$build/magma-bench" "$@"
fi
# The benchmark and every process it starts share one CPU, the last this
# shell may use: on a shared host, work spread over several CPUs waits
# on whichever of them a neighbour holds, and its timings follow the
# neighbours. Go sizes GOMAXPROCS, and the library its default worker
# count, from this one CPU.
cpus=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
exec taskset -c "${cpus##*[,-]}" "$build/magma-bench" --serve-bin "$build/serve" --out "$build/results" "$@"
