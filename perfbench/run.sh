#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload eval-full --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache and every
# file the benchmark writes stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
