#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#   bash perfbench/run.sh --workload align --seed 1 --seconds 20 --trace 0
# Everything the build writes stays under .bench_build/ in the current
# directory (CARGO_TARGET_DIR, when set, names that directory instead).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a persona checkout" >&2
	exit 2
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOWORK=off GOMODCACHE="$out/gomod"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
