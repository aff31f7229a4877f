#!/bin/sh
# Benchmark-regression gate for the simulator's hot loop.
#
# Runs the root corpus benchmarks (BenchmarkPipelineBaseline/DMP, which
# report sim-insts/s), the pipeline-level BenchmarkDMPRun, the execution
# engine benchmarks (BenchmarkEmuRun, BenchmarkProfileCollect), the
# SMARTS sampled executor (BenchmarkSampledRun for one configuration,
# BenchmarkSampledCells for a 16-cell grid sharing one warm walk), the
# sweep engine (BenchmarkSweepGrid) and the perceptron kernel on its own
# (BenchmarkPerceptron), folds the repeats through
# cmd/benchgate, rewrites BENCH_PR9.json, and fails when throughput drops
# more than BENCH_MAX_REGRESS percent (default 15) against the snapshot
# committed at HEAD, or allocs/op grows past the benchgate default.
#
# benchgate folds repeats best-of, so noise is one-sided (a loaded machine
# can only look slower); more repeats tighten the estimate.
#
# Environment knobs:
#   SKIP_BENCH_COMPARE=1   skip entirely (e.g. heavily-loaded CI machines)
#   BENCH_COUNT=N          benchmark repeats to fold (default 5)
#   BENCH_MAX_REGRESS=P    allowed throughput drop, percent (default 15)
#   BENCH_UPDATE=1         refresh the snapshot without gating
set -eu

if [ "${SKIP_BENCH_COMPARE:-0}" = "1" ]; then
	echo "bench-compare: skipped (SKIP_BENCH_COMPARE=1)"
	exit 0
fi

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

count=${BENCH_COUNT:-5}
go test -run '^$' \
	-bench 'BenchmarkPipelineBaseline|BenchmarkPipelineDMP|BenchmarkDMPRun|BenchmarkEmuRun|BenchmarkProfileCollect|BenchmarkSampledRun|BenchmarkSampledCells|BenchmarkSweepGrid|BenchmarkPerceptron' \
	-benchmem -count "$count" . ./internal/bpred ./internal/pipeline ./internal/emu ./internal/profile ./internal/sample ./internal/sweep | tee "$tmp/bench.txt"

baseline=""
if git show HEAD:BENCH_PR9.json > "$tmp/baseline.json" 2>/dev/null; then
	baseline="$tmp/baseline.json"
fi

update=""
if [ "${BENCH_UPDATE:-0}" = "1" ]; then
	update="-update"
fi

go run ./cmd/benchgate -in "$tmp/bench.txt" -out BENCH_PR9.json \
	${baseline:+-baseline "$baseline"} -max-regress "${BENCH_MAX_REGRESS:-15}" $update
