#!/bin/sh
# Tier-1 CI gate, and the one list of its steps: `make ci` runs this script,
# and the Makefile's single-step targets are for local use. The steps are
# vet, a build and vet of the perfbench module (a separate module that
# `go vet ./...` skips, built with the environment perfbench/run.sh uses,
# so a public signature it calls cannot break unnoticed), the required pinned-version lint gate (scripts/lint.sh), build, the
# full test suite under the race detector, a check that every test name in
# the gate lists below still matches a test (scripts/check_run_list.sh), the
# allocation guards, the emulator fast-path differential suite, the dmplint
# corpus sweep, the
# benchmark-regression gate (skippable with SKIP_BENCH_COMPARE=1), the
# generated-corpus smoke (dmpgen -check over 50 programs spanning every
# preset), the profile-free static-estimate smoke (the same corpus with
# -check -static), the sampled-simulation differential smoke (the
# sample-error gate over a corpus subset and a 40-program generated
# population: every full-fidelity IPC must land inside the sampled
# confidence interval, and the population must hold sampled rows),
# the dmpserve daemon smoke (real HTTP jobs including a duplicate spec that
# must hit the shared simulation cache, a /metrics scrape, and a SIGTERM
# graceful-drain check), the disk-cache smoke (scripts/cache_smoke.sh:
# full and sampled dmpsim reruns under a fresh DMP_CACHE_DIR must be disk
# hits printing the same cycles and IPC), the sweep-engine smoke (a small benchmark x config
# grid through cmd/dmpsweep with CSV streaming, run twice so the second
# invocation exercises resume, then a sampled grid over two L2 sizes, so
# each program's cells run as two groups sharing a functional-warming walk),
# the paper-table pin (scripts/eval_check.sh:
# the full dmpbench evaluation must match evaluation_output.txt apart from
# timing lines), and short deterministic fuzz smokes over the
# DML parser, the emulator differential harness and the perceptron kernel's
# scalar-reference differential.
set -eux

go vet ./...
(cd perfbench && export GOTOOLCHAIN=local GOWORK=off GOFLAGS= && go build -o /dev/null . && go vet ./...)
sh scripts/lint.sh
go build ./...
go test -race ./...
alloc_pipeline='TestNilTracerEventNoAlloc|TestSteadyStateAllocs|TestSimAllocs'
alloc_emu='TestMachineAllocs|TestStepBatchAllocs'
alloc_verify='TestSelectVerifyAllocs'
emu_diff='TestFastMatchesReference|TestRunMatchesReference|TestRunBlocksMatchesReference|TestRunBlocksLimitsMatchStepRef|TestRunBlocksEventsMatchReference|TestRunBlocksFaultsMatchStepRef|TestStepBatchMatchesReference|TestFaultEquivalence|TestStepBatchFaults'
sh scripts/check_run_list.sh ./internal/pipeline "$alloc_pipeline"
sh scripts/check_run_list.sh ./internal/emu "$alloc_emu"
sh scripts/check_run_list.sh ./internal/verify "$alloc_verify"
sh scripts/check_run_list.sh ./internal/emu "$emu_diff"
go test -run "$alloc_pipeline" ./internal/pipeline
go test -run "$alloc_emu" ./internal/emu
go test -run "$alloc_verify" ./internal/verify
go test -run "$emu_diff" ./internal/emu
sh scripts/bench_compare.sh
go run ./cmd/dmplint -corpus
go run ./cmd/dmpgen -preset all -n 50 -seed 1 -check
go run ./cmd/dmpgen -preset all -n 50 -seed 1 -check -static
go run ./cmd/dmpbench -exp sample-error -bench gzip,mcf,twolf -gen-n 40
go run ./cmd/dmpsim -bench vpr -dmp -max 200000 -trace-json .trace-smoke.jsonl >/dev/null
go run ./cmd/dmptrace -require-sessions .trace-smoke.jsonl >/dev/null
rm -f .trace-smoke.jsonl
sh scripts/serve_smoke.sh
sh scripts/cache_smoke.sh
rm -f .sweep-smoke.csv
go run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
go run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
rm -f .sweep-smoke.csv
go run ./cmd/dmpsweep -sample -bench gzip,mcf -axis DMP=false,true -axis ConfThreshold=12,14 -axis L2.SizeKB=512,1024 -q >/dev/null
sh scripts/eval_check.sh
go test -run '^$' -fuzz=FuzzParse -fuzztime=30s ./internal/lang
go test -run '^$' -fuzz=FuzzEmuDiff -fuzztime=30s ./internal/emu
go test -run '^$' -fuzz=FuzzPerceptronKernel -fuzztime=30s ./internal/bpred
