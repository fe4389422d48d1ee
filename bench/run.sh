#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout:  bash bench/run.sh --workload coupled_r1 --seed 1 --seconds 18 --trace 0
# Everything the build and the run write stays under .bench_build in that root.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

rev=$(git -C "$src" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$src" && go build -ldflags "-X main.gitRev=$rev" -o "$build/ap3bench" .)
exec "$build/ap3bench" -workdir "$build" "$@"
