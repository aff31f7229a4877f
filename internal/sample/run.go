package sample

import (
	"context"
	"fmt"
	"math"

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
// One pipeline walks the whole program as a single chained stream,
// alternating warmed skips with detailed intervals, so every interval
// inherits the full warm history of everything before it and the
// instruction count is discovered en route — no separate counting or replay
// pass. A program too short for MinIntervals at the configured spacing is
// re-streamed at a shrunk period, or run exact when even that cannot fit.
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

	// A program's dynamic instruction count is a pure function of (program,
	// input, MaxInsts) — it does not depend on the sampling conf or the
	// machine model — so a remembered count from any earlier run lets this
	// one pick the right period up front and stop at its last interval:
	// no discovery pass, no tail walk. Config sweeps and repeated server
	// jobs hit this path on every run after the first.
	key := memoKey(prog, input, cfg.MaxInsts)
	if total, ok := totalMemo.Load(key); ok {
		return runKnown(ctx, prog, input, cfg, sc, nil, total)
	}

	m := emu.New(prog, input, 0)
	r, total, err := runStream(ctx, m, cfg, sc, sc.Period, 0)
	if err != nil {
		return Result{}, err
	}
	totalMemo.Put(key, total)
	if r.Intervals >= sc.MinIntervals {
		return r, nil
	}
	// Too short for MinIntervals at the configured spacing: fall through to
	// the known-total decision tree, re-streaming on the same machine: Reset
	// clears the memory segments the discovery stream grew, in place, and
	// keeps the predecode, instead of building a new machine.
	m.Reset()
	return runKnown(ctx, prog, input, cfg, sc, m, total)
}

// runKnown picks the sampling strategy for a program whose instruction count
// is already known — from the memo or from a discovery stream that came up
// short — and runs it on m (a fresh machine is made when m is nil). It makes
// exactly the decisions the discovery path would: stream at the configured
// period when that yields enough intervals, at a proportionally shrunk
// period when the program is short, and fall back to one exact
// full-fidelity run when the program cannot fit MinIntervals wall to wall.
// Results are bit-identical between the discovery and known-total paths:
// interval placement depends only on (total, sc).
func runKnown(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf, m *emu.Machine, total uint64) (Result, error) {
	period := sc.Period
	if len(intervalStarts(sc, period, total)) < sc.MinIntervals {
		if total < minSampledTotal(sc) {
			return runExact(ctx, prog, input, cfg, sc)
		}
		period = total / uint64(sc.MinIntervals)
	}
	if m == nil {
		m = emu.New(prog, input, 0)
	}
	r, _, err := runStream(ctx, m, cfg, sc, period, total)
	if err != nil {
		return Result{}, err
	}
	if r.Intervals < sc.MinIntervals {
		return runExact(ctx, prog, input, cfg, sc)
	}
	return r, nil
}

// runStream is the single-chain strategy: place, skip, measure, repeat, with
// one pipeline carrying warm state end to end on m (a fresh or freshly Reset
// machine). When known is zero the trace's end doubles as the instruction
// count, which the caller needs for the shrink decision: the stretch past
// the last interval is consumed on the plain (unwarmed) block path, since
// nothing downstream can observe its warming. When known is the instruction
// count from a prior pass, the stream stops at its last interval and never
// touches the tail.
func runStream(ctx context.Context, m *emu.Machine, cfg pipeline.Config, sc SampleConf, period, known uint64) (Result, uint64, error) {
	detail := sc.Warmup + sc.Interval
	if period < detail {
		period = detail
	}
	span := period - detail + 1
	maxN := cfg.MaxInsts
	cfgS := cfg
	cfgS.MaxInsts = 0 // interval budget is managed by RunInterval
	cfgS.Tracer = nil
	sim := pipeline.NewFromMachine(m, cfgS)

	var ivs []pipeline.IntervalResult
	// warmed counts only the fast-forward that reached an interval: in
	// discovery mode the stream warms its way toward a placement that may
	// turn out not to fit, and that dangling skip must not leak into the
	// accounting — WarmInsts has to come out bit-identical whether the
	// instruction count was known up front (memo) or discovered en route.
	var warmed, detailed, warmedPending uint64
	var lastStart, lastWarmed, lastDetailed uint64
	for k := uint64(0); ; k++ {
		start := k*period + sc.offAt(k, span)
		if maxN > 0 && start+detail > maxN {
			break
		}
		if known > 0 && start+detail > known {
			break
		}
		need := start - sim.Consumed()
		skipped, err := sim.Skip(ctx, need, min(sc.PredLead, need))
		if err != nil {
			return Result{}, 0, fmt.Errorf("sample: skip to interval %d: %w", k, err)
		}
		warmedPending += skipped
		if skipped < need || sim.TraceDone() {
			break
		}
		before := sim.Consumed()
		iv, err := sim.RunInterval(ctx, sc.Warmup, sc.Interval)
		if err != nil {
			return Result{}, 0, fmt.Errorf("sample: interval %d: %w", k, err)
		}
		lastStart, lastWarmed, lastDetailed = start, warmedPending, sim.Consumed()-before
		detailed += lastDetailed
		warmed += warmedPending
		warmedPending = 0
		ivs = append(ivs, iv)
		if sim.TraceDone() {
			break
		}
	}
	total := known
	if known == 0 {
		// Consume the tail on the plain path so the trace's end yields the
		// instruction count; at most one stratum remains.
		for !sim.TraceDone() {
			rem := uint64(math.MaxUint64) / 2
			if maxN > 0 {
				c := sim.Consumed()
				if c >= maxN {
					break
				}
				rem = maxN - c
			}
			n, err := sim.SkipPlain(ctx, rem)
			if err != nil {
				return Result{}, 0, fmt.Errorf("sample: tail: %w", err)
			}
			if n == 0 {
				break
			}
		}
		total = sim.Consumed()
		// The trace's end may have cut the last interval short. The
		// known-total path never schedules an interval that does not fit
		// whole, so drop it along with its skip and detail: the caller then
		// applies the same MinIntervals rule to the same interval set.
		if len(ivs) > 0 && lastStart+detail > total {
			ivs = ivs[:len(ivs)-1]
			warmed -= lastWarmed
			detailed -= lastDetailed
		}
	}

	r := Result{
		Conf:          sc,
		Period:        period,
		TotalInsts:    total,
		DetailedInsts: detailed,
		WarmInsts:     warmed,
	}
	aggregate(&r, ivs)
	return r, total, nil
}

// totalMemo caches dynamic instruction counts across Run calls, keyed by
// content hash of (program, input, MaxInsts). Counts are exact and
// architecture-independent, so the memo never changes a Result — it only
// removes the discovery pass (pinned by TestSampledDeterministic). Counts
// are cheap to rediscover; the cap only bounds memory against endless
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
