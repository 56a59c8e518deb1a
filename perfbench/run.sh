#!/usr/bin/env bash
# Builds cmd/server and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/server and perfbench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/server" ./cmd/server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/server" -workdir "$out" "$@"
