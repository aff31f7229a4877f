package sample

import (
	"context"
	"fmt"

	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/memo"
	"dmp/internal/pipeline"
)

// Run executes a sampled simulation of (prog, input, cfg) under sc. The
// program is tiled into Period-length strata; each stratum's interval lands
// at a seed-derived offset inside it (stratified random sampling — see
// SampleConf.Seed) and runs warmup+measure instructions of detailed
// simulation, with functional fast-forward plus microarchitectural warming
// in between. The per-interval CPIs aggregate into the estimate and its
// Student-t confidence interval.
//
// The dynamic instruction count comes first, from the count memo or from
// one hook-less functional pass; it picks the period (the configured one, a
// proportionally shrunk one for a short program, or an exact run when even
// that cannot fit MinIntervals). One pipeline then walks the program as a
// single chained stream over intervalStarts, alternating warmed skips with
// detailed intervals, so every interval inherits the full warm history of
// everything before it, and stops at its last interval.
//
// Interval placement derives from (instruction count, sc) alone, never from
// the host or from whether the count was remembered from an earlier run, so
// a given (program, input, cfg, sc) always produces the identical Result and
// can be memoized exactly like a full-fidelity run.
func Run(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf) (Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !sc.Enabled {
		return runExact(ctx, prog, input, cfg, sc)
	}
	total, err := countInsts(ctx, prog, input, cfg.MaxInsts)
	if err != nil {
		return Result{}, err
	}
	period := sc.Period
	if len(intervalStarts(sc, period, total)) < sc.MinIntervals {
		if total < minSampledTotal(sc) {
			return runExact(ctx, prog, input, cfg, sc)
		}
		period = total / uint64(sc.MinIntervals)
	}
	r, err := runStream(ctx, prog, input, cfg, sc, period, total)
	if err != nil {
		return Result{}, err
	}
	if r.Intervals < sc.MinIntervals {
		return runExact(ctx, prog, input, cfg, sc)
	}
	return r, nil
}

// countInsts returns the program's dynamic instruction count under the
// maxInsts cap (0: none). The count is a pure function of (program, input,
// maxInsts): it does not depend on the sampling conf or the machine model,
// so a remembered count serves every later run, and config sweeps and
// repeated server jobs pay the counting pass once per program. Otherwise
// the program runs once on the emulator's block executor with no hooks
// (emu.RunBlocksCtx, which polls ctx between chunks).
func countInsts(ctx context.Context, prog *isa.Program, input []int64, maxInsts uint64) (uint64, error) {
	key := memoKey(prog, input, maxInsts)
	if total, ok := totalMemo.Load(key); ok {
		return total, nil
	}
	total, err := emu.New(prog, input, 0).RunBlocksCtx(ctx, maxInsts, nil)
	if err != nil {
		return 0, fmt.Errorf("sample: count: %w", err)
	}
	totalMemo.Put(key, total)
	return total, nil
}

// runStream is the single-chain strategy: skip, measure, repeat over the
// intervals that fit whole inside total at the given period, with one
// pipeline carrying warm state end to end. The stream stops at its last
// interval and never touches the tail.
func runStream(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf, period, total uint64) (Result, error) {
	cfg.MaxInsts = 0 // interval budget is managed by RunInterval
	cfg.Tracer = nil
	sim := pipeline.NewFromMachine(emu.New(prog, input, 0), cfg)
	starts := intervalStarts(sc, period, total)
	ivs := make([]pipeline.IntervalResult, 0, len(starts))
	var warmed, detailed uint64
	for k, start := range starts {
		need := start - sim.Consumed()
		skipped, err := sim.Skip(ctx, need, min(sc.PredLead, need))
		if err != nil {
			return Result{}, fmt.Errorf("sample: skip to interval %d: %w", k, err)
		}
		before := sim.Consumed()
		iv, err := sim.RunInterval(ctx, sc.Warmup, sc.Interval)
		if err != nil {
			return Result{}, fmt.Errorf("sample: interval %d: %w", k, err)
		}
		warmed += skipped
		detailed += sim.Consumed() - before
		ivs = append(ivs, iv)
	}
	r := Result{
		Conf:          sc,
		Period:        period,
		TotalInsts:    total,
		DetailedInsts: detailed,
		WarmInsts:     warmed,
	}
	aggregate(&r, ivs)
	return r, nil
}

// totalMemo caches dynamic instruction counts across Run calls, keyed by
// content hash of (program, input, MaxInsts). Counts are exact and
// architecture-independent, so the memo never changes a Result — it only
// removes the counting pass (pinned by TestSampledDeterministic). Counts
// are cheap to recount; the cap only bounds memory against endless
// streams of generated programs.
var totalMemo = memo.Bounded[totalKey, uint64]{Cap: 4096}

type totalKey struct {
	progH, inputH uint64
	maxInsts      uint64
}

// memoKey hashes the program text and input tape (FNV-1a). Hashing content
// rather than keying on pointers keeps the memo from pinning dead programs
// in memory, at a cost of a few microseconds per Run.
func memoKey(prog *isa.Program, input []int64, maxInsts uint64) totalKey {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(uint64(prog.Entry))
	mix(uint64(prog.GlobalWords))
	for i := range prog.Code {
		in := &prog.Code[i]
		mix(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rs1)<<16 | uint64(in.Rs2)<<24)
		if in.UseImm {
			mix(uint64(in.Imm) | 1<<63)
		}
		mix(uint64(in.Target))
	}
	progH := h
	h = uint64(offset)
	for _, v := range input {
		mix(uint64(v))
	}
	return totalKey{progH: progH, inputH: h, maxInsts: maxInsts}
}

// intervalStarts places the intervals that fit whole inside total
// instructions: stratum k's interval at k*period + offAt(k). Starts are
// strictly increasing with at least warmup+interval between consecutive
// ones, so intervals never overlap.
func intervalStarts(sc SampleConf, period, total uint64) []uint64 {
	detail := sc.Warmup + sc.Interval
	span := period - detail + 1
	var starts []uint64
	for k := uint64(0); k*period+detail <= total; k++ {
		if s := k*period + sc.offAt(k, span); s+detail <= total {
			starts = append(starts, s)
		}
	}
	return starts
}

// minSampledTotal is the shortest program worth sampling. Below
// 3×MinIntervals×(Warmup+Interval) the detailed share would exceed a third
// of the program — the savings vanish — and the cold-start transient, which
// functional warming reproduces optimistically (clean outcome streams train
// the predictors without wrong-path history pollution), occupies enough of
// the run to bias the estimate past its own confidence interval. Such
// programs run exact instead.
func minSampledTotal(sc SampleConf) uint64 {
	return 3 * uint64(sc.MinIntervals) * (sc.Warmup + sc.Interval)
}

// runExact is the full-fidelity fallback: one ordinary pipeline run wrapped
// in a Result so every sampled-mode consumer handles short programs (and
// disabled confs) without a second code path.
func runExact(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf) (Result, error) {
	st, err := pipeline.RunCtx(ctx, prog, input, cfg)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Conf:          sc,
		Exact:         true,
		Full:          &st,
		TotalInsts:    st.Retired,
		DetailedInsts: st.Retired,
		EstCycles:     st.Cycles,
	}
	if st.Retired > 0 {
		r.MeanCPI = float64(st.Cycles) / float64(st.Retired)
	}
	return r, nil
}
