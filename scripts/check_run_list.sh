#!/bin/sh
# Usage: sh scripts/check_run_list.sh <package> '<Name1|Name2|...>'
#
# Fails unless every name in a `go test -run` list matches at least one
# test, benchmark, fuzz target or example in the package, as `go test
# -list` reports them. `go test -run` exits 0 with "[no tests to run]" on a
# name that matches nothing, so without this check a renamed test silently
# drops out of a CI gate that names it.
set -eu
pkg=$1
names=$(go test -list . "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)') || names=
status=0
for want in $(printf '%s\n' "$2" | tr '|' ' '); do
	if ! printf '%s\n' "$names" | grep -Eq -- "$want"; then
		echo "check_run_list: $pkg: -run name $want matches no test" >&2
		status=1
	fi
done
exit $status
