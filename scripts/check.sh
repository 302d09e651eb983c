#!/usr/bin/env bash
# check.sh — the tier-2 quality gate: formatting, vet, the domain-aware
# mclint analyzer, the race-enabled test suite, and a short fuzz pass
# over the schedulability and generator invariants. Everything here uses
# only the Go toolchain; there are no external dependencies.
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target fuzz budget (default 10s; "0s" skips fuzzing)

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

step() { printf '== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "mclint"
go run ./cmd/mclint ./...

step "go test -race"
go test -race ./...

# The fault-tolerance suite runs in the full -race pass above; repeat
# it by name so a filtered or cached run can never skip the
# checkpoint/resume, quarantine and fault-injection proofs.
step "fault-tolerance suite (race)"
go test -race -count=1 -run 'FaultInject|Resume|Quarantine' ./internal/runner/... ./cmd/mcexp

# Same discipline for the observability proofs: the sim-oracle
# differential test (every analytical accept survives adversarial
# simulation), the metrics/CSV agreement suite and the end-to-end
# golden-file comparison must run by name on every gate.
step "oracle + metrics + golden suite"
go test -count=1 -run 'SimOracle|Metrics|Golden|ZeroAllocs' \
    ./internal/partition ./internal/experiments ./internal/runner ./cmd/mcexp

# The scenario layer by name: CDF and arrival-stream validation, the
# online sweep aggregation/determinism/quarantine proofs, the online
# sim-oracle churn differential, the scenario checkpoint identity
# (version-1 static journals resume byte-identically, protocol
# mismatches refuse), and the fixed-seed online CLI goldens.
step "scenario-golden"
go test -count=1 \
    -run 'CDF|Stream|ArrivalProcess|Online|Scenario|Timeline|Version1Static' \
    ./internal/taskgen ./internal/experiments ./internal/sim \
    ./internal/runner ./internal/partition ./cmd/mcexp

# The admission daemon's chaos suite by name and under the race
# detector: panic quarantine at every injection point, slow-backend
# partial verdicts, stalls past the grace window, and the concurrent
# mixed-fault storm. The daemon must keep serving correct verdicts
# while faults fire; any wedge, lost verdict or race fails the gate.
step "serve-chaos suite (race)"
go test -race -count=1 -run 'Chaos|GracefulDrain|QueueFullSheds|DegradedMode' \
    ./internal/serve/...

# The static-analysis suite by name: the pass fixtures (seeded
# violations caught on exact lines), the self-hosting real-tree-clean
# gate, and the runtime twin of the //mc:allocfree annotations. The
# `mclint` step above already fails on real findings; this one fails
# when the analyzer itself regresses.
step "mclint suite + alloc-free proof"
go test -count=1 ./internal/lint
go test -count=1 -run 'HotPathAllocFree|BackendSchedulable|SessionAllocFree' ./internal/partition ./internal/fpamc

# The incremental-vs-batch differential wall by name: the deterministic
# agreement sweep (delta commits vs Reanalyze-forced recompute, both
# backends, all schemes, batch and churn), the session-replays-batch
# proof, and the hand-computed delta fixtures.
step "incremental differential wall"
go test -count=1 -run 'IncrementalAgreement|SessionMatchesBatch|Delta|WarmStart' \
    ./internal/partition ./internal/edfvd ./internal/fpamc

# Coverage ratchet: the line coverage of the internal packages must not
# drop below the floor recorded when the gate was introduced. Raise the
# floor when coverage durably improves; never lower it.
step "coverage ratchet (internal/...)"
COVER_FLOOR=92.7
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -count=1 -coverprofile="$profile" ./internal/... >/dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total internal/... coverage: ${total}% (floor ${COVER_FLOOR}%)"
awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "coverage ratchet: ${total}% is below the ${COVER_FLOOR}% floor" >&2
    exit 1
}

if [[ "$FUZZTIME" != "0s" && "$FUZZTIME" != "0" ]]; then
    step "fuzz (${FUZZTIME} per target)"
    scripts/fuzz.sh "$FUZZTIME"
fi

# Non-gating: performance tracking for the partitioning fast path, the
# incremental online events and the end-to-end online scenario. The
# report goes to a temporary file, never to a tracked one; regressions
# show up there but do not fail the gate.
step "bench (non-gating)"
# The file name carries the PR number bench.sh reads its Fig1 floor from.
bench_out="$(mktemp -d)/BENCH_PR10.json"
if scripts/bench.sh "$bench_out"; then
    echo "bench report: $bench_out"
else
    echo "bench: failed (non-gating)" >&2
fi

step "OK"
