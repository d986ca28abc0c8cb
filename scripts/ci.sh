#!/usr/bin/env sh
# ci.sh — the repository's single CI entry point.
#
# Usage:
#   scripts/ci.sh
#
# Runs, in order:
#   1. gofmt: no file may need reformatting
#   2. tier-1 verify: go build, go vet, go test, go test -race (ROADMAP.md)
#   2b. scheduling independence: the root package and internal/server
#      again under -cpu 1,2,4 -shuffle=on, so a test that assumes
#      scheduling it does not control fails here, not on a 2-CPU box
#   2c. benchmark module: go vet and go test in perfbench/ (its own
#      module, outside the root ./... pattern), so an API change that
#      breaks the benchmark fails CI
#   3. store coverage floor: the storage layer is the persistence trust
#      boundary; its statement coverage must stay >= VJCI_STORE_COV (85%)
#   3b. engine coverage floor: the evaluation engines (internal/engine/...)
#      carry the partition-correctness burden; their aggregate statement
#      coverage must stay >= VJCI_ENGINE_COV (80%)
#   3c. server coverage floor: the serving layer owns admission, outcome
#      accounting and the flight recorder; its statement coverage must
#      stay >= VJCI_SERVER_COV (80%)
#   3d. enum coverage floor: the shared enumeration stage owns the
#      streaming/partial-flush ordering proofs; internal/engine/enum
#      statement coverage must stay >= VJCI_ENUM_COV (85%)
#   3e. maintain coverage floor: the incremental maintenance layer is what
#      keeps materialized views byte-identical to re-materialization under
#      document updates; internal/maintain statement coverage must stay
#      >= VJCI_MAINTAIN_COV (85%)
#   4. govulncheck, when the tool is installed (skipped, not failed, when
#      absent — hermetic runners don't fetch tools)
#   5. fuzz smoke: 10s each of FuzzParse (internal/tpq),
#      FuzzReadViewStore (internal/store), FuzzEvaluateDifferential
#      (root), and FuzzUpdateDifferential (root), seeded from the
#      committed corpora
#   5b. vjload smoke: a 1s in-process open-loop run at low QPS; the load
#      path must produce a well-formed viewjoin/load/v1 manifest
#   5c. vjload density smoke: a 1s multi-tenant run under a tight
#      -max-resident-bytes cap; the warm/cold tiering must serve every
#      request without errors
#   6. bench gate: a fresh manifest via scripts/bench.sh compared against
#      the committed BENCH_7.json baseline with scripts/benchcmp.sh
#      (>10% wall-time or allocs regression fails, and so does any change
#      in a row's deterministic counters — matches, scanned, comparisons,
#      derefs, pagesRead — outside partitioned first-k rows, whose scan
#      stop depends on scheduling; VJCI_SKIP_BENCH=1 skips
#      the gate on machines where timings are meaningless, e.g. shared
#      runners). The serving-latency manifest bench.sh writes alongside is
#      gated against BENCH_7.load.json with a wider threshold
#      (VJBENCHCMP_LOAD_THRESHOLD, default 0.50) — cross-machine latency
#      quantiles are far noisier than single-process wall times.
#
# Environment:
#   VJCI_FUZZTIME        per-target fuzz budget (default 10s)
#   VJCI_STORE_COV       minimum internal/store coverage %% (default 85)
#   VJCI_ENGINE_COV      minimum internal/engine/... coverage %% (default 80)
#   VJCI_SERVER_COV      minimum internal/server coverage %% (default 80)
#   VJCI_ENUM_COV        minimum internal/engine/enum coverage %% (default 85)
#   VJCI_MAINTAIN_COV    minimum internal/maintain coverage %% (default 85)
#   VJCI_SKIP_BENCH=1    skip the bench and load regression gates
#   VJBENCHCMP_THRESHOLD regression threshold for the bench gate (default 0.10)
#   VJBENCHCMP_LOAD_THRESHOLD  threshold for the load gate (default 0.50)
set -eu
cd "$(dirname "$0")/.."

fuzztime="${VJCI_FUZZTIME:-10s}"
store_cov="${VJCI_STORE_COV:-85}"
engine_cov="${VJCI_ENGINE_COV:-80}"
server_cov="${VJCI_SERVER_COV:-80}"
enum_cov="${VJCI_ENUM_COV:-85}"
maintain_cov="${VJCI_MAINTAIN_COV:-85}"

echo "== gofmt"
unformatted="$(gofmt -l . 2>/dev/null || true)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need reformatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== tier-1: build"
go build ./...
echo "== tier-1: vet"
go vet ./...
echo "== tier-1: test"
go test ./...
echo "== tier-1: test -race"
go test -race ./...
echo "== scheduling independence: -cpu 1,2,4 -shuffle=on"
go test -count=1 -cpu 1,2,4 -shuffle=on . ./internal/server
echo "== benchmark module: perfbench vet + test"
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== store coverage floor (>= ${store_cov}%)"
cov="$(go test -count=1 -cover ./internal/store | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
if [ -z "$cov" ]; then
	echo "store coverage: could not parse coverage output" >&2
	exit 1
fi
if ! awk -v c="$cov" -v floor="$store_cov" 'BEGIN { exit !(c+0 >= floor+0) }'; then
	echo "store coverage ${cov}% is below the ${store_cov}% floor" >&2
	exit 1
fi
echo "store coverage: ${cov}%"

echo "== engine coverage floor (>= ${engine_cov}%)"
engprof="$(mktemp -t vjci-engcov-XXXXXX.out)"
go test -count=1 -coverprofile "$engprof" ./internal/engine/... >/dev/null
ecov="$(go tool cover -func "$engprof" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
rm -f "$engprof"
if [ -z "$ecov" ]; then
	echo "engine coverage: could not parse coverage output" >&2
	exit 1
fi
if ! awk -v c="$ecov" -v floor="$engine_cov" 'BEGIN { exit !(c+0 >= floor+0) }'; then
	echo "engine coverage ${ecov}% is below the ${engine_cov}% floor" >&2
	exit 1
fi
echo "engine coverage: ${ecov}%"

echo "== server coverage floor (>= ${server_cov}%)"
scov="$(go test -count=1 -cover ./internal/server | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
if [ -z "$scov" ]; then
	echo "server coverage: could not parse coverage output" >&2
	exit 1
fi
if ! awk -v c="$scov" -v floor="$server_cov" 'BEGIN { exit !(c+0 >= floor+0) }'; then
	echo "server coverage ${scov}% is below the ${server_cov}% floor" >&2
	exit 1
fi
echo "server coverage: ${scov}%"

echo "== enum coverage floor (>= ${enum_cov}%)"
ncov="$(go test -count=1 -cover ./internal/engine/enum | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
if [ -z "$ncov" ]; then
	echo "enum coverage: could not parse coverage output" >&2
	exit 1
fi
if ! awk -v c="$ncov" -v floor="$enum_cov" 'BEGIN { exit !(c+0 >= floor+0) }'; then
	echo "enum coverage ${ncov}% is below the ${enum_cov}% floor" >&2
	exit 1
fi
echo "enum coverage: ${ncov}%"

echo "== maintain coverage floor (>= ${maintain_cov}%)"
mcov="$(go test -count=1 -cover ./internal/maintain | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
if [ -z "$mcov" ]; then
	echo "maintain coverage: could not parse coverage output" >&2
	exit 1
fi
if ! awk -v c="$mcov" -v floor="$maintain_cov" 'BEGIN { exit !(c+0 >= floor+0) }'; then
	echo "maintain coverage ${mcov}% is below the ${maintain_cov}% floor" >&2
	exit 1
fi
echo "maintain coverage: ${mcov}%"

if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck"
	govulncheck ./...
else
	echo "== govulncheck: not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== fuzz smoke: FuzzParse ($fuzztime)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$fuzztime" ./internal/tpq
echo "== fuzz smoke: FuzzReadViewStore ($fuzztime)"
go test -run '^$' -fuzz '^FuzzReadViewStore$' -fuzztime "$fuzztime" ./internal/store
echo "== fuzz smoke: FuzzEvaluateDifferential ($fuzztime)"
go test -run '^$' -fuzz '^FuzzEvaluateDifferential$' -fuzztime "$fuzztime" .
echo "== fuzz smoke: FuzzUpdateDifferential ($fuzztime)"
go test -run '^$' -fuzz '^FuzzUpdateDifferential$' -fuzztime "$fuzztime" .

echo "== vjload smoke: 1s in-process open-loop run"
loadtmp="$(mktemp -t vjci-load-XXXXXX.json)"
go run ./cmd/vjload -xmark 0.02 -qps 50 -duration 1s -seed 1 -json "$loadtmp"
if ! grep -q '"schema": "viewjoin/load/v1"' "$loadtmp"; then
	echo "vjload smoke: manifest missing viewjoin/load/v1 schema" >&2
	rm -f "$loadtmp"
	exit 1
fi
rm -f "$loadtmp"

echo "== vjload density smoke: 1s multi-tenant run under a resident-bytes cap"
denstmp="$(mktemp -t vjci-dens-XXXXXX.json)"
go run ./cmd/vjload -xmark 0.02 -qps 50 -duration 1s -seed 1 \
	-tenants 3 -max-resident-bytes 4096 \
	-mix '//site//item//name @ //site//item//name; //description//keyword @ //description//keyword % t1' \
	-json "$denstmp"
if ! grep -q '"schema": "viewjoin/load/v1"' "$denstmp"; then
	echo "vjload density smoke: manifest missing viewjoin/load/v1 schema" >&2
	rm -f "$denstmp"
	exit 1
fi
if ! grep -q '"errors": 0' "$denstmp"; then
	echo "vjload density smoke: capped multi-tenant run reported request errors" >&2
	rm -f "$denstmp"
	exit 1
fi
rm -f "$denstmp"

if [ -n "${VJCI_SKIP_BENCH:-}" ]; then
	echo "== bench gate: skipped (VJCI_SKIP_BENCH)"
else
	echo "== bench gate: fresh manifest vs BENCH_7.json"
	tmp="$(mktemp -t vjci-bench-XXXXXX.json)"
	trap 'rm -f "$tmp" "${tmp%.json}.load.json"' EXIT
	VJBENCH_SKIP_SMOKE=1 scripts/bench.sh "$tmp"
	scripts/benchcmp.sh BENCH_7.json "$tmp"
	echo "== load gate: fresh serving-latency manifest vs BENCH_7.load.json"
	VJBENCHCMP_THRESHOLD="${VJBENCHCMP_LOAD_THRESHOLD:-0.50}" \
		scripts/benchcmp.sh BENCH_7.load.json "${tmp%.json}.load.json"
fi

echo "== ci: OK"
