#!/usr/bin/env sh
# benchcmp.sh — diff two bench manifests produced by scripts/bench.sh.
#
# Usage:
#   scripts/benchcmp.sh BENCH_1.json BENCH_2.json
#   VJBENCHCMP_THRESHOLD=0.25 scripts/benchcmp.sh old.json new.json
#
# Prints per-experiment wall-time deltas and exits non-zero when any
# experiment present in both manifests regressed by more than the threshold
# (default 10%), or when a row's deterministic counters changed (see
# cmd/vjbenchcmp). Experiments in only one manifest are reported as
# added/removed, never as regressions. Wall times are noisy — rerun before
# trusting a marginal failure; counters are exact.
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 2 ]; then
	echo "usage: scripts/benchcmp.sh old.json new.json" >&2
	exit 2
fi
exec go run ./cmd/vjbenchcmp -threshold "${VJBENCHCMP_THRESHOLD:-0.10}" "$1" "$2"
