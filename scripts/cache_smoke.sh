#!/bin/sh
# cache-smoke: end-to-end check of the simulation cache's disk layer through
# a binary. Runs dmpsim on gzip twice under a fresh DMP_CACHE_DIR, at full
# fidelity and then sampled: the first run of each simulates and stores its
# entry, the second must be answered from disk (disk_hits 1, misses 0) and
# print the same cycles and IPC; both entries must sit in the one sm-*/
# namespace, with no full-fidelity s-*/ directory beside it. Then a sampled
# dmpsweep over two cells runs
# twice under a second fresh DMP_CACHE_DIR: the grouped path must store one
# entry per cell, and the rerun must read them without storing them again
# and report the same rows.
#
#   sh scripts/cache_smoke.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/dmpsim" ./cmd/dmpsim
go build -o "$tmp/dmpsweep" ./cmd/dmpsweep
export DMP_CACHE_DIR="$tmp/cache"

for mode in full sample; do
	flags=
	[ "$mode" = sample ] && flags=-sample
	# Run 1 simulates (disk_hits 0, misses 1); run 2 reads its entry back.
	for run in "1 0 1" "2 1 0"; do
		set -- $run
		"$tmp/dmpsim" -bench gzip -dmp -max 200000 $flags -metrics-json - >"$tmp/$mode.$1"
		# The report's headline lines, then the metrics JSON from its first
		# unindented brace on.
		grep -E '^(cycles|IPC) ' "$tmp/$mode.$1" >"$tmp/$mode.$1.head"
		got=$(sed -n '/^{/,$p' "$tmp/$mode.$1" | jq -r '"\(.cache.disk_hits) \(.cache.misses)"')
		if [ "$got" != "$2 $3" ]; then
			echo "cache-smoke: $mode run $1 read disk_hits/misses $got, want $2 $3" >&2
			exit 1
		fi
	done
	if ! diff -u "$tmp/$mode.1.head" "$tmp/$mode.2.head"; then
		echo "cache-smoke: $mode rerun from disk printed different cycles or IPC" >&2
		exit 1
	fi
	if [ "$(wc -l <"$tmp/$mode.1.head")" -ne 2 ]; then
		echo "cache-smoke: $mode run printed no cycles or IPC line" >&2
		exit 1
	fi
done

# A full-fidelity run is the disabled-conf case of the one memoized run
# kind: its entry and the sampled one share one namespace.
n=$(ls "$DMP_CACHE_DIR"/sm-*/*.json | wc -l)
dirs=$(ls -d "$DMP_CACHE_DIR"/*/ | wc -l)
if [ "$n" -ne 2 ] || [ "$dirs" -ne 1 ] || ls -d "$DMP_CACHE_DIR"/s-* >/dev/null 2>&1; then
	echo "cache-smoke: full and sampled runs left $n entries under sm-*/ in $dirs directories, want 2 in one and no s-*/" >&2
	ls -R "$DMP_CACHE_DIR" >&2
	exit 1
fi

# One worker keeps the two cells in one group, one RunSampledCells call.
export DMP_CACHE_DIR="$tmp/sweep-cache"
for run in 1 2; do
	if ! "$tmp/dmpsweep" -sample -p 1 -bench gzip -axis DMP=false,true -q -json "$tmp/sweep.$run.json" >/dev/null 2>"$tmp/sweep.err"; then
		cat "$tmp/sweep.err" >&2
		exit 1
	fi
	# Entries are written by temp file + rename, so a rerun that stored
	# them again would show new inodes.
	ls -i "$DMP_CACHE_DIR"/sm-*/*.json >"$tmp/sweep.$run.entries"
done
n=$(wc -l <"$tmp/sweep.2.entries")
if [ "$n" -ne 2 ]; then
	echo "cache-smoke: grouped sampled sweep left $n entries under sm-*/, want 2" >&2
	exit 1
fi
if ! diff -u "$tmp/sweep.1.entries" "$tmp/sweep.2.entries"; then
	echo "cache-smoke: grouped sampled sweep rerun stored its entries again instead of reading them" >&2
	exit 1
fi
if ! jq -S .rows "$tmp/sweep.1.json" >"$tmp/sweep.1.rows" || ! jq -S .rows "$tmp/sweep.2.json" >"$tmp/sweep.2.rows" ||
	! diff -u "$tmp/sweep.1.rows" "$tmp/sweep.2.rows"; then
	echo "cache-smoke: grouped sampled sweep rerun reported different rows" >&2
	exit 1
fi
echo "cache-smoke: full, sampled and grouped sampled reruns answered from DMP_CACHE_DIR"
