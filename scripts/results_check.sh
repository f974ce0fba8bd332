#!/bin/sh
# Regenerates every paper experiment's CSV and checks that it is
# byte-identical to the committed copy in results/. The experiments run on
# virtual time, so any difference is a behaviour change, not noise. The
# wall-clock "wire" experiment is skipped: its numbers depend on the host.
#
# Usage: scripts/results_check.sh   (from anywhere inside the checkout)
set -eu

cd "$(dirname "$0")/.."

ids=$(go run ./cmd/benchrunner -list | awk '$1 != "wire" { print $1 }' | paste -sd, -)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== regenerating $ids"
go run ./cmd/benchrunner -run "$ids" -csv "$tmp/results" >/dev/null

# Compare only the CSVs: results/ also holds a human-readable transcript
# with wall-clock timings.
mkdir "$tmp/want"
cp results/*.csv "$tmp/want/"
if ! diff -r "$tmp/want" "$tmp/results"; then
	echo "results_check: regenerated CSVs differ from results/" >&2
	exit 1
fi
echo "results_check: $(ls "$tmp/results" | wc -l) CSVs byte-identical"
