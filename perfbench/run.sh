#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload miss --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh all --seed 1
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
