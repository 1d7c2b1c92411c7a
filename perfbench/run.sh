#!/usr/bin/env bash
# Builds the live-engine benchmark from the sources in this checkout and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload noop-chain3-64b --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ under the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOMODCACHE="$out/gomod"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export BENCH_COMMIT
fi
exec "$out/perfbench" "$@"
