#!/usr/bin/env bash
# fuzz.sh — run every fuzz target in the repository for a fixed budget
# each. This list is the one definition of the fuzz suite: check.sh and
# `make fuzz` both call this script.
#
# Usage: scripts/fuzz.sh [fuzztime]
#   fuzztime  per-target fuzz budget (default 10s)
#
# A failing target writes its reproducer under the package's
# testdata/fuzz/<FuzzName>/ directory and stops the script.

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

# package:target, one line per fuzz target.
TARGETS=(
    ./internal/edfvd:FuzzTheorem1Feasible
    ./internal/edfvd:FuzzDualAgreement
    ./internal/edfvd:FuzzProbedScreens
    ./internal/taskgen:FuzzGenerate
    ./internal/taskgen:FuzzCDFSource
    ./internal/fpamc:FuzzBackendAgreement
    ./internal/partition:FuzzIncrementalAgreement
    ./internal/serve:FuzzDecodeAdmit
)

for t in "${TARGETS[@]}"; do
    pkg="${t%%:*}"
    name="${t##*:}"
    echo "== fuzz $name ($pkg, $FUZZTIME)"
    go test "$pkg" -run='^$' -fuzz="^${name}\$" -fuzztime="$FUZZTIME"
done
