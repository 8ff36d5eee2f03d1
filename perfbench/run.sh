#!/usr/bin/env bash
# Builds the programs under test (ccmbench, ccmd, ccmcached) and the
# benchmark harness from the source tree this script sits in, then runs
# the harness with the given arguments:
#
#   bash perfbench/run.sh --workload tables-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build
# at the root of the tree (build cache included), so nothing outside the
# tree is read or written beyond the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ccmd" ]]; then
	echo "perfbench: no ccmem source tree at $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root" && go build -o "$out/bin/" ./cmd/ccmbench ./cmd/ccmd ./cmd/ccmcached) >&2
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
