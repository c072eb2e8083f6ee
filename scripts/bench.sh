#!/bin/sh
# Benchmark snapshot: runs the bitset micro-benchmarks and the apriori
# Table-2 macro-benchmarks with -benchmem and converts the output into a
# committed BENCH_<date>.json (ops/sec, ns/op, allocs/op, plus
# speedup_vs_complete for every shape=/variant= sub-benchmark against its
# shape's complete-intersection baseline).
#
# Each benchmark runs COUNT times and benchjson keeps the fastest run per
# name, so background load on the benchmark host skews the snapshot as
# little as possible. When a prior BENCH_*.json exists in the repo root,
# the newest one is passed to benchjson -prev so the snapshot carries a
# delta section against it. Every snapshot records the commit it was
# built from, the Go version and GOMAXPROCS, so a delta names the two
# commits it compares.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1s; use e.g. 5x for a
#              quick smoke run)
#   COUNT      go test -count repetitions per benchmark (default 3)
#   OUT        output file (default BENCH_YYYY-MM-DD.json in the repo root)
#   PREV       prior snapshot to diff against (default: newest existing
#              BENCH_*.json other than OUT; empty string disables)
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_$(date -u +%Y-%m-%d).json}"
if [ -z "${PREV+x}" ]; then
    # Newest committed snapshot that isn't the file we're about to write.
    PREV="$(ls -1 BENCH_*.json 2>/dev/null | grep -vx "$OUT" | sort | tail -n 1 || true)"
fi
COMMIT="$(git rev-parse HEAD)"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run='^$' -bench=. -benchmem -benchtime="$BENCHTIME" -count="$COUNT" \
    ./internal/bitset/ ./internal/apriori/ | tee "$tmp"

if [ -n "$PREV" ]; then
    echo "diffing against $PREV"
    go run ./cmd/benchjson -commit "$COMMIT" -prev "$PREV" <"$tmp" >"$OUT"
else
    go run ./cmd/benchjson -commit "$COMMIT" <"$tmp" >"$OUT"
fi
echo "wrote $OUT"
