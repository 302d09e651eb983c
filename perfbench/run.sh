#!/usr/bin/env bash
# run.sh — build and run the repository benchmark (see main.go).
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [perfbench flags]
#
# Builds the benchmark command and the mcserved daemon from source into
# .bench_build/ (with the Go build cache there too, so nothing outside
# the checkout is written), then runs the benchmark. Exits non-zero
# without a result when the sources are not all present.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/partition" || ! -d "$root/cmd/mcserved" ]]; then
    echo "perfbench: run from the repository root (go.mod, internal/ and cmd/ not found)" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/mcserved" ./cmd/mcserved
go -C perfbench build -o "$out/perfbench" .

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -root "$root" -mcserved "$out/mcserved" -commit "$commit" "$@"
