package sample

import (
	"context"
	"fmt"

	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/memo"
	"dmp/internal/pipeline"
)

// Cell is one machine configuration of a grouped sampled run: the program
// it simulates and its config. The cells of one program differ in config
// and, through Config.DMP, in annotations only.
type Cell struct {
	Prog *isa.Program
	Cfg  pipeline.Config
}

// Run executes a sampled simulation of (prog, input, cfg) under sc: the
// one-cell case of RunCells.
func Run(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf) (Result, error) {
	rs, err := RunCells(ctx, input, []Cell{{prog, cfg}}, sc)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunCells executes a sampled simulation of every cell on input under sc
// and returns the results in cell order. The program is tiled into
// Period-length strata; each stratum's interval lands at a seed-derived
// offset inside it (stratified random sampling — see SampleConf.Seed) and
// runs warmup+measure instructions of detailed simulation. The per-interval
// CPIs aggregate into the estimate and its Student-t confidence interval.
// Under a disabled conf every cell runs exact, at full fidelity
// (Result.Full).
//
// Cells whose program, input, MaxInsts and warm geometry
// (pipeline.Config.WarmKey) agree form a group that shares everything but
// the detailed intervals. The group's dynamic instruction count comes from
// the count memo or from one hook-less functional pass; it picks the period
// (the configured one, a proportionally shrunk one for a short program, or
// an exact run when even that cannot fit MinIntervals). One functional walk
// (pipeline.Warm) then warms the tables through the whole stream up to the
// last interval and records each interval's correct path once; every cell
// runs its interval from the warm tables at that point, interval by
// interval, so a group pays its walk once however many cells it holds.
//
// Nothing a cell does reaches the walk, and interval placement derives from
// (instruction count, sc) alone, never from the host, the grouping or
// whether the count was remembered from an earlier run: each cell's Result
// equals Run of that cell alone and can be memoized.
func RunCells(ctx context.Context, input []int64, cells []Cell, sc SampleConf) ([]Result, error) {
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	for _, c := range cells {
		if err := c.Cfg.Validate(); err != nil {
			return nil, err
		}
	}
	if !sc.Enabled {
		// Exact runs share no walk, so there is nothing to group.
		return runExact(ctx, input, cells, sc)
	}
	out := make([]Result, len(cells))
	for _, idx := range groups(cells) {
		group := make([]Cell, len(idx))
		for j, i := range idx {
			group[j] = cells[i]
		}
		rs, err := runGroup(ctx, input, group, sc)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			out[i] = rs[j]
		}
	}
	return out, nil
}

// groupKey identifies the cells one warm walk serves. The binaries of one
// program differ in annotations only and share their code segment, so the
// segment's identity stands for the program; the input is the call's.
type groupKey struct {
	code         *isa.Inst
	entry, words int
	maxInsts     uint64
	geom         pipeline.WarmKey
}

// groups partitions cell indices by groupKey, in order of first appearance.
func groups(cells []Cell) [][]int {
	var out [][]int
	at := map[groupKey]int{}
	for i, c := range cells {
		k := groupKey{entry: c.Prog.Entry, words: c.Prog.GlobalWords, maxInsts: c.Cfg.MaxInsts, geom: c.Cfg.WarmKey()}
		if len(c.Prog.Code) > 0 {
			k.code = &c.Prog.Code[0]
		}
		g, ok := at[k]
		if !ok {
			g = len(out)
			at[k] = g
			out = append(out, nil)
		}
		out[g] = append(out[g], i)
	}
	return out
}

// runGroup runs the cells of one group: exact runs when the program is too
// short to sample, one shared walk otherwise.
func runGroup(ctx context.Context, input []int64, group []Cell, sc SampleConf) ([]Result, error) {
	total, err := countInsts(ctx, group[0].Prog, input, group[0].Cfg.MaxInsts)
	if err != nil {
		return nil, err
	}
	period, starts := place(sc, total)
	if len(starts) < sc.MinIntervals {
		return runExact(ctx, input, group, sc)
	}
	ivs, warmed, err := walk(ctx, input, group, sc, starts)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(group))
	for i := range group {
		out[i] = Result{
			Conf:          sc,
			Period:        period,
			TotalInsts:    total,
			DetailedInsts: uint64(len(starts)) * (sc.Warmup + sc.Interval),
			WarmInsts:     warmed,
		}
		aggregate(&out[i], ivs[i])
	}
	return out, nil
}

// place picks the period and the interval starts for a program of total
// instructions: the configured period, or a proportionally shrunk one when
// that fits fewer than MinIntervals. No starts means the program is too
// short to sample at all.
func place(sc SampleConf, total uint64) (uint64, []uint64) {
	period := sc.Period
	if len(intervalStarts(sc, period, total)) < sc.MinIntervals {
		if total < minSampledTotal(sc) {
			return 0, nil
		}
		period = total / uint64(sc.MinIntervals)
	}
	return period, intervalStarts(sc, period, total)
}

// walk is the interval-major run of one group: one functional walk over the
// program stops at each interval start, records the interval's window, runs
// every cell's interval over it, then warms on through the window. It stops
// at the last interval and never touches the tail. It returns each cell's
// intervals and the number of instructions warmed between them.
func walk(ctx context.Context, input []int64, group []Cell, sc SampleConf, starts []uint64) ([][]pipeline.IntervalResult, uint64, error) {
	w := pipeline.NewWarm(group[0].Prog, input, group[0].Cfg)
	cores := make([]*pipeline.Core, len(group))
	ivs := make([][]pipeline.IntervalResult, len(group))
	for i, c := range group {
		cfg := c.Cfg
		cfg.MaxInsts = 0 // the window bounds each interval
		cfg.Tracer = nil
		cores[i] = pipeline.NewCore(c.Prog, cfg)
		ivs[i] = make([]pipeline.IntervalResult, 0, len(starts))
	}
	var pos, warmed uint64
	for k, start := range starts {
		skipped, err := w.Skip(ctx, start-pos, min(sc.PredLead, start-pos))
		if err != nil {
			return nil, 0, fmt.Errorf("sample: skip to interval %d: %w", k, err)
		}
		win, err := w.Record(sc.Warmup + sc.Interval)
		if err != nil {
			return nil, 0, fmt.Errorf("sample: interval %d: %w", k, err)
		}
		for i, c := range cores {
			iv, err := w.RunInterval(ctx, c, win, sc.Warmup, sc.Interval)
			if err != nil {
				return nil, 0, fmt.Errorf("sample: interval %d: %w", k, err)
			}
			ivs[i] = append(ivs[i], iv)
		}
		w.Replay(win)
		pos += skipped + uint64(len(win))
		warmed += skipped
	}
	return ivs, warmed, nil
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

// runExact is the full-fidelity path: one ordinary pipeline run per cell,
// each wrapped in a Result so every consumer handles short programs and
// disabled confs without a second code path.
func runExact(ctx context.Context, input []int64, group []Cell, sc SampleConf) ([]Result, error) {
	out := make([]Result, len(group))
	for i, c := range group {
		st, err := pipeline.RunCtx(ctx, c.Prog, input, c.Cfg)
		if err != nil {
			return nil, err
		}
		out[i] = Result{
			Conf:          sc,
			Exact:         true,
			Full:          &st,
			TotalInsts:    st.Retired,
			DetailedInsts: st.Retired,
			EstCycles:     st.Cycles,
		}
		if st.Retired > 0 {
			out[i].MeanCPI = float64(st.Cycles) / float64(st.Retired)
		}
	}
	return out, nil
}
