#!/usr/bin/env bash
# loadtest.sh — build mcserved + mcserveload, start the daemon with a
# deliberately small queue, offer load at several rates through the
# retrying client, and write the latency/shedding report to
# BENCH_PR8.json. Latencies are timed from each request's due time on
# the offer clock, not from when a sender picked it up, so queueing
# behind a stall is counted. Pure Go toolchain; no external load tools.
#
# Usage: scripts/loadtest.sh [duration-per-level] [out-file]
#   duration-per-level  default 5s
#   out-file            default BENCH_PR8.json

set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-5s}"
OUT="${2:-BENCH_PR8.json}"
ADDR="localhost:8379"
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT

echo "== build"
go build -o "$BIN/mcserved" ./cmd/mcserved
go build -o "$BIN/mcserveload" ./cmd/mcserveload

# A small queue and few workers so overload behavior (429 sheds and
# degraded screen verdicts) appears at rates a CI box can offer.
echo "== start mcserved on $ADDR"
"$BIN/mcserved" -addr "$ADDR" -queue 16 -workers 1 -timeout 250ms -cache -1 &
SERVED_PID=$!
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -fsS "http://$ADDR/readyz" >/dev/null

echo "== offered load sweep"
"$BIN/mcserveload" \
    -url "http://$ADDR" \
    -pr 8 \
    -rps 100,2000 \
    -duration "$DURATION" \
    -conns 64 \
    -budget 500ms \
    -n 96 \
    -schemes "WFD,FFD,BFD,Hybrid,CA-TPA" \
    -require-full-frac 0.5 \
    -description "mcserved (queue=16, 1 worker, 250ms deadline, cache off) answering 5-scheme admissions on 96-task sets at moderate (100 rps) and overload (2000 rps) offered rates; half the corpus refuses degraded verdicts (require_full) and takes 429 backpressure instead" \
    > "$OUT"

echo "== graceful drain"
kill -INT "$SERVED_PID"
wait "$SERVED_PID"
echo "== wrote $OUT"
