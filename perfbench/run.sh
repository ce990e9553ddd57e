#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-live --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache also lives under
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
