#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it there; everything it builds or writes stays under .bench_build.
#
#   bash perfbench/run.sh --workload batch-trees --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
