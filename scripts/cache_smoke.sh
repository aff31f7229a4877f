#!/bin/sh
# cache-smoke: end-to-end check of the simulation cache's disk layer through
# a binary. Runs dmpsim on gzip twice under a fresh DMP_CACHE_DIR, at full
# fidelity and then sampled: the first run of each simulates and stores its
# entry, the second must be answered from disk (disk_hits 1, misses 0) and
# print the same cycles and IPC.
#
#   sh scripts/cache_smoke.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/dmpsim" ./cmd/dmpsim
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
echo "cache-smoke: full and sampled reruns answered from DMP_CACHE_DIR"
