# Tier-1 gate: everything `make ci` runs must stay green.
#
#   make ci     the full CI gate: runs scripts/ci.sh, the one list of CI
#               steps (vet, lint, build, race tests, the smokes and the
#               fuzz smokes; see the script's header). The targets below
#               run single steps locally.
#   make test   plain test run (what the quick tier-1 check uses)
#   make lint   pinned staticcheck + golangci-lint via scripts/lint.sh
#   make fuzz   longer local fuzzing session for the front-end and
#               compile+verify targets
#   make prof-pipeline
#               CPU profile of the simulator over the corpus, top functions
#   make prof-toolchain
#               CPU profile of selection and verification on gcc, top functions
#
# Lint is required, not best-effort: scripts/lint.sh pins the tool versions,
# fails on findings or version drift, and only downgrades to a loud skip
# when a tool is absent and cannot be installed offline (LINT_STRICT=1
# turns that skip into a failure too).

GO ?= go

.PHONY: ci vet lint build test race lint-corpus fuzz-smoke fuzz eval trace-smoke alloc-guard bench-compare prof-pipeline prof-toolchain emu-diff gen-smoke static-smoke sample-smoke serve-smoke cache-smoke sweep-smoke eval-check

ci:
	sh scripts/ci.sh

vet:
	$(GO) vet ./...
	cd perfbench && GOTOOLCHAIN=local GOWORK=off GOFLAGS= $(GO) vet ./...

# Static analysis beyond vet: pinned-version staticcheck + golangci-lint,
# findings fail the gate (see scripts/lint.sh for the offline policy).
lint:
	sh scripts/lint.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Cross-layer static verification of every benchmark x input set x selection
# algorithm; any diagnostic fails the gate.
lint-corpus:
	$(GO) run ./cmd/dmplint -corpus

# End-to-end tracing smoke: a traced DMP run must produce a JSON event
# stream that dmptrace can decode and that contains dpred sessions.
trace-smoke:
	$(GO) run ./cmd/dmpsim -bench vpr -dmp -max 200000 -trace-json .trace-smoke.jsonl >/dev/null
	$(GO) run ./cmd/dmptrace -require-sessions .trace-smoke.jsonl >/dev/null
	rm -f .trace-smoke.jsonl

# Zero-overhead guards: a nil Tracer must add no allocation to event
# emission, the simulator's steady-state allocs per retired instruction
# must stay near zero, a Sim plus a short run must allocate under 1 MiB
# (its issue ring and store-forwarding table start small), and an emulator
# machine run to halt on any corpus program must allocate under 1 MiB (only
# the memory it writes is backed), the emulator's trace feed must allocate
# nothing per batch, and a heur selection plus a full verifier
# run on gcc must stay under its allocation count and byte bounds.
# Runs without -race (race skips alloc counting).
alloc-guard:
	$(GO) test -run 'TestNilTracerEventNoAlloc|TestSteadyStateAllocs|TestSimAllocs' ./internal/pipeline
	$(GO) test -run 'TestMachineAllocs|TestStepBatchAllocs' ./internal/emu
	$(GO) test -run 'TestSelectVerifyAllocs' ./internal/verify

# Benchmark-regression gate: re-measures the corpus benchmarks, refreshes
# BENCH_PR9.json, and fails on a >15% throughput drop (or allocs/op growth)
# against the snapshot committed at HEAD. SKIP_BENCH_COMPARE=1 skips it;
# BENCH_UPDATE=1 refreshes the snapshot without gating.
bench-compare:
	sh scripts/bench_compare.sh

# Host-cost breakdown of the simulator: CPU-profiles one experiment (fig6:
# profiling of all 17 programs, then their baseline and DMP simulations under
# six selection algorithms) on one worker with no disk cache, and prints the
# top functions. The profile stays
# in .prof-pipeline.pprof for `go tool pprof` (see EXPERIMENTS.md,
# "Simulator host-cost breakdown").
prof-pipeline:
	DMP_CACHE_DIR= $(GO) run ./cmd/dmpbench -exp fig6 -p 1 -cpuprofile .prof-pipeline.pprof >/dev/null
	$(GO) tool pprof -top -nodecount=25 .prof-pipeline.pprof

# Host-cost breakdown of the compiler layers: CPU-profiles a heur selection
# (BenchmarkSelection) and a full verifier run over its annotations
# (BenchmarkVerifyRun: "warm" on a code array with a clean verdict, "cold" on
# a fresh clone, so the code passes stay in the profile) on gcc, and prints
# the top functions. The profile stays in .prof-toolchain.pprof (see
# EXPERIMENTS.md, "Compiler-layer kernels").
prof-toolchain:
	$(GO) test -run '^$$' -bench 'BenchmarkSelection$$|BenchmarkVerifyRun$$' -cpuprofile .prof-toolchain.pprof -o .prof-toolchain.test . >/dev/null
	$(GO) tool pprof -top -nodecount=25 .prof-toolchain.test .prof-toolchain.pprof

# Differential check of the predecoded fast execution paths against the
# reference interpreter: corpus trace-for-trace, the block executor's state
# and hook events, batch equivalence, and the hand-written fault matrix.
emu-diff:
	$(GO) test -run 'TestFastMatchesReference|TestRunMatchesReference|TestRunBlocksMatchesReference|TestRunBlocksLimitsMatchStepRef|TestRunBlocksEventsMatchReference|TestRunBlocksFaultsMatchStepRef|TestStepBatchMatchesReference|TestFaultEquivalence|TestStepBatchFaults' ./internal/emu

# Generated-workload smoke: build a 50-program corpus across every preset
# and push each program through the full quality gate (all 8 selection
# algorithms verified + emu-vs-pipeline differential). Runs in seconds;
# the population-scale version lives in the harness test suite.
gen-smoke:
	$(GO) run ./cmd/dmpgen -preset all -n 50 -seed 1 -check

# Profile-free smoke: the same 50-program corpus and quality gate, but every
# selection algorithm consumes the static profile estimate (internal/static)
# instead of the train tape — zero diagnostics required end to end.
static-smoke:
	$(GO) run ./cmd/dmpgen -preset all -n 50 -seed 1 -check -static

# Sampled-simulation smoke: the sample-error differential gate on a corpus
# subset plus a 40-program generated population — every full-fidelity IPC
# must land inside the sampled run's stated confidence interval, baseline
# and DMP alike (a non-zero miss count makes dmpbench exit non-zero, and so
# does a population whose rows all fell back to exact runs). The
# population-scale version lives in the harness test suite
# (TestSampleErrorGate).
sample-smoke:
	$(GO) run ./cmd/dmpbench -exp sample-error -bench gzip,mcf,twolf -gen-n 40

# Daemon smoke: boot dmpserve on a random loopback port, drive HTTP jobs
# (including a duplicate spec that must be served from the shared simulation
# cache), scrape /metrics, and verify the SIGTERM graceful drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Disk-cache smoke: dmpsim run twice, full and sampled, under a fresh
# DMP_CACHE_DIR; each rerun must be a disk hit with the same cycles and IPC.
cache-smoke:
	sh scripts/cache_smoke.sh

# Sweep-engine smoke: a small benchmark x config grid through cmd/dmpsweep
# with CSV streaming, then the same invocation again against the same file —
# the second run must resume (skip every completed cell) instead of
# re-simulating. A sampled grid over two L2 sizes follows, so each
# program's cells run as two groups, each sharing one functional-warming
# walk. Runs in seconds.
sweep-smoke:
	rm -f .sweep-smoke.csv
	$(GO) run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
	$(GO) run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
	rm -f .sweep-smoke.csv
	$(GO) run ./cmd/dmpsweep -sample -bench gzip,mcf -axis DMP=false,true -axis ConfThreshold=12,14 -axis L2.SizeKB=512,1024 -q >/dev/null

# Short deterministic fuzz smoke for CI; crashes fail the gate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/lang
	$(GO) test -run '^$$' -fuzz=FuzzEmuDiff -fuzztime=30s ./internal/emu
	$(GO) test -run '^$$' -fuzz=FuzzPerceptronKernel -fuzztime=30s ./internal/bpred

# Longer local session over the front-end and toolchain targets.
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=5m ./internal/lang
	$(GO) test -run '^$$' -fuzz=FuzzCheck -fuzztime=5m ./internal/lang
	$(GO) test -run '^$$' -fuzz=FuzzCompileVerify -fuzztime=5m ./internal/verify
	$(GO) test -run '^$$' -fuzz=FuzzEmuDiff -fuzztime=5m ./internal/emu
	$(GO) test -run '^$$' -fuzz=FuzzPerceptronKernel -fuzztime=5m ./internal/bpred

# Regenerate the checked-in evaluation transcript (slow; see EXPERIMENTS.md).
eval:
	$(GO) run ./cmd/dmpbench > evaluation_output.txt

# Paper-table pin: rerun the full evaluation and diff it against the
# checked-in transcript, masking only host-dependent timing lines.
eval-check:
	sh scripts/eval_check.sh
