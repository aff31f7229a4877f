#!/bin/sh
# Pins the paper tables: regenerates the full dmpbench evaluation and diffs
# its standard output against the checked-in transcript,
# evaluation_output.txt. Only the host-dependent lines are masked: the
# per-experiment "(<exp> in ...)" wall times and the footer's sim wall,
# allocations, worker pool and experiments lines. Every table, the
# simulation counts and the dpred audit line must match byte for byte. The
# disk cache is disabled so the simulation counts do not depend on earlier
# runs.
#
#   sh scripts/eval_check.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mask() {
	sed -E -e 's/^\(([a-z0-9]+) in .*\)$/(\1 in ...)/' \
		-e 's/^(sim wall|allocations|worker pool|experiments) .*/\1 .../' "$1"
}

DMP_CACHE_DIR= go run ./cmd/dmpbench >"$tmp/got.txt"
mask evaluation_output.txt >"$tmp/want"
mask "$tmp/got.txt" >"$tmp/got"
if ! diff -u "$tmp/want" "$tmp/got"; then
	echo "eval-check: dmpbench output differs from evaluation_output.txt" >&2
	exit 1
fi
echo "eval-check: dmpbench output matches evaluation_output.txt"
