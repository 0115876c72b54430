#!/usr/bin/env bash
# Builds the odperf benchmark from the source tree it sits in and runs it.
#
#   bash odperf/bench.sh --workload tall --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root or anywhere else: it changes to the root
# itself. The Go build cache, the binary and the span files of traced runs
# all go to .bench_build/ under the root, so nothing is written elsewhere.
# Without the repository's go.mod beside it the build is refused and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -f odperf/go.mod ]; then
	echo "odperf: no Go module to benchmark under $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd odperf && go build -o "$out/odperf" .)
exec "$out/odperf" --root "$root" --out "$out" "$@"
