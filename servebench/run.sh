#!/usr/bin/env bash
# Builds the served-admission benchmark from source and runs it:
#
#   bash servebench/run.sh --workload arrival-direct --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# servers' scratch files stay under .bench_build/ there, and the build
# never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go -C servebench build -o "$out/servebench" .
exec "$out/servebench" -workdir "$out" "$@"
