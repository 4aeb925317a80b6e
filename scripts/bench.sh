#!/usr/bin/env bash
# Runs the Go figure and micro-benchmarks and prints their numbers, for a
# quick look at one layer. The committed simulator baseline is kbench's:
# bash bench/run.sh measures it, bench/baseline.json records it, and
# bench/ab.sh compares two revisions (see bench/README.md).
#
# Usage:
#   scripts/bench.sh               # benchmark suites only (minutes)
#   scripts/bench.sh --full-scale  # also the full -exp scale ladder
#                                  # (128/256/512 instances; ~10-20+ min)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-5x}"

echo "== benchmark suites (benchtime $BENCHTIME) =="
go test -run '^$' \
    -bench 'KVCache|Figure2|ExperimentPrefix|EngineRound|ExperimentDisagg|ScaleFleet|Dispatch512' \
    -benchtime "$BENCHTIME" -benchmem . ./internal/kvcache

if [ "${1:-}" = "--full-scale" ]; then
    echo "== full scale ladder (this takes a while) =="
    go run ./cmd/kunserve-sim -exp scale
fi
