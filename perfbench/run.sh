#!/usr/bin/env bash
# Builds the benchmark and the module it measures from source, then runs it.
#
#   bash perfbench/run.sh --workload tall-fastod --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build products, the Go build cache and trace
# files stay under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
