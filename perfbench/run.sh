#!/usr/bin/env bash
# Builds iosnapd and the benchmark from this checkout's sources, then runs
# the benchmark. Run from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload oltp-4k --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root of
# the checkout, the Go build cache included.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/iosnapd ]; then
	echo "perfbench: $root is not an iosnap checkout (no go.mod or cmd/iosnapd)" >&2
	exit 1
fi
work=.bench_build
mkdir -p "$work/tmp"

export GOCACHE="$root/$work/gocache" GOPATH="$root/$work/gopath" GOTMPDIR="$root/$work/tmp" TMPDIR="$root/$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

go build -o "$work/iosnapd" ./cmd/iosnapd >&2
(cd perfbench && go build -o "../$work/perfbench" .) >&2
exec "$work/perfbench" "$@"
