package pipeline

import (
	"context"
	"errors"
	"fmt"

	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/trace"
)

// This file is the pipeline side of SMARTS-style sampled simulation
// (internal/sample). A Warm walks the program's correct path functionally
// and keeps the long-lived microarchitectural state — caches, BTB, global
// history, RAS, branch predictor and confidence estimator — warm with every
// instruction's outcome (SMARTS functional warming, Wunderlich et al.,
// ISCA 2003). At each interval the walk records the interval's correct path
// once, as a window, and Warm.RunInterval runs that window in detail for a
// configuration's Core on the warm tables, measuring IPC only inside a
// retirement-delimited window so that neither the detailed warmup nor the
// drain tail pollutes the estimate. The tables journal the detailed run's
// changes and roll them back afterwards: nothing flows back into the walk,
// so the warm state at an interval depends only on the program, its input
// and the table geometry (Config.WarmKey), and every configuration that
// shares the geometry runs its intervals from one walk (the live points of
// TurboSMARTS, Wenisch et al., 2006). The warmup portion of each interval
// re-trains what functional warming cannot: wrong-path effects and the
// pipeline's own speculative history.

// Warm is one functional-warming walk: the machine executing the correct
// path, the tables it warms, the global history, RAS and I-cache line its
// hooks keep, the current interval window, and the pipeline machinery every
// Core's intervals run on.
type Warm struct {
	m        *emu.Machine
	warm     tables
	hist     bpred.History
	ras      *bpred.RAS
	lastLine int
	win      []emu.Trace
	sim      *Sim
	// wh warms the caches, BTB, history and RAS; whPred also trains the
	// branch predictor and the confidence estimator.
	wh, whPred *emu.BlockHooks
}

// NewWarm starts a walk at the entry of prog on input, with tables of cfg's
// geometry. Only the fields in cfg.WarmKey matter.
func NewWarm(prog *isa.Program, input []int64, cfg Config) *Warm {
	w := &Warm{
		m:        emu.New(prog, input, 0),
		warm:     newTables(cfg),
		ras:      bpred.NewRAS(cfg.RASDepth),
		lastLine: -1,
	}
	w.wh, w.whPred = w.hooks(false), w.hooks(true)
	return w
}

// Skip functionally advances the walk past n correct-path instructions,
// warming the caches, BTB, global history and RAS with each one's outcome.
// Cache contents decay over thousands-of-instruction skips far too slowly
// for a short detailed warmup to rebuild (the L2 alone holds 16K lines), so
// the walk keeps them current. The last predTail instructions also train
// the branch predictor and confidence estimator: per-branch predictor
// training is by far the most expensive warming operation (measured at
// roughly half the functional-warming CPU time), and the small predictor
// tables re-converge over a few tens of thousands of branch outcomes, so
// training through the skip's tail is as accurate as — and several times
// cheaper than — training through all of it. Skip returns the number
// actually skipped, short only when the program halts (or faults) inside
// the skip. ctx, when non-nil, cancels mid-fast-forward at block-chunk
// boundaries.
func (w *Warm) Skip(ctx context.Context, n, predTail uint64) (uint64, error) {
	predTail = min(predTail, n)
	done, err := w.run(ctx, n-predTail, w.wh)
	if err != nil || done < n-predTail {
		return done, err
	}
	k, err := w.run(ctx, predTail, w.whPred)
	return done + k, err
}

// run executes n instructions through h; n == 0 runs none (RunBlocks would
// read it as unlimited).
func (w *Warm) run(ctx context.Context, n uint64, h *emu.BlockHooks) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	return w.m.RunBlocksCtx(ctx, n, h)
}

// Record executes the next n correct-path instructions into the walk's
// window and returns it, warming nothing: the intervals run from the state
// before the window, and Replay warms the tables with it afterwards. The
// window is valid until the next Record, and shorter than n only when the
// program halts inside it.
func (w *Warm) Record(n uint64) ([]emu.Trace, error) {
	if uint64(cap(w.win)) < n {
		w.win = make([]emu.Trace, n)
	}
	k, err := w.m.StepBatch(w.win[:n])
	if errors.Is(err, emu.ErrHalted) {
		err = nil
	}
	return w.win[:k], err
}

// Replay warms the tables with a window Record returned, predictor
// included: a window continues the predictor-training tail of the skip
// before it.
func (w *Warm) Replay(win []emu.Trace) {
	recs := w.m.Predecoded().Recs
	for i := range win {
		replay(w.whPred, &recs[win[i].PC], &win[i])
	}
}

// hooks builds a warming hook set for the emulator's block executor. It
// warms the I-cache at line granularity, the D-cache with load addresses
// (stores do not access the cache in the detailed model either), the global
// history with conditional-branch outcomes, the BTB with taken control flow,
// and the RAS with calls and returns. With trainPred it also trains the
// perceptron and the confidence estimator on every conditional branch.
func (w *Warm) hooks(trainPred bool) *emu.BlockHooks {
	t := &w.warm
	branch := func(pc int, taken bool, target int) {
		w.hist = w.hist.Push(taken)
		if taken {
			t.btb.Update(pc, target)
		}
	}
	if trainPred {
		branch = func(pc int, taken bool, target int) {
			pred := t.pred.PredictAndTrain(pc, w.hist, taken)
			t.conf.Update(pc, w.hist, pred != taken)
			w.hist = w.hist.Push(taken)
			if taken {
				t.btb.Update(pc, target)
			}
		}
	}
	return &emu.BlockHooks{
		Block: func(start, end int) {
			first, last := start>>3, end>>3
			if first == w.lastLine {
				first++
			}
			for l := first; l <= last; l++ {
				t.hier.I.Access(cache.InstAddr(l << 3))
			}
			w.lastLine = last
		},
		Load: func(_ int, addr int64) {
			t.hier.D.Access(cache.DataAddr(addr))
		},
		Branch: branch,
		Call: func(pc, next int) {
			w.ras.Push(pc + 1)
			t.btb.Update(pc, next)
		},
		Ret: func(pc int) {
			w.ras.Pop()
		},
		Jump: func(pc, next int) {
			t.btb.Update(pc, next)
		},
	}
}

// lend hands the warm tables to one configuration's interval: with its
// confidence threshold and cache latencies, which warming never reads, and
// with every table journaling its changes, so that restore can undo them.
func (w *Warm) lend(cfg Config) tables {
	t := w.warm
	t.pred.Journal()
	t.conf.Journal()
	t.btb.Journal()
	t.hier.Journal()
	t.conf.SetThreshold(cfg.ConfThreshold)
	t.hier.Retime(cfg.hierConfig())
	return t
}

// restore undoes everything an interval changed in the warm tables.
func (w *Warm) restore() {
	t := w.warm
	t.pred.Rollback()
	t.conf.Rollback()
	t.btb.Rollback()
	t.hier.Rollback()
}

// Core is one configuration's part of a sampled run: its config and
// program, its clock and what its intervals accumulate (statistics, session
// audit, usefulness feedback). The pipeline machinery an interval runs on —
// queues, free lists, scheduling tables — belongs to the Warm walk and is
// shared by every Core it serves.
type Core struct{ c core }

// NewCore creates the core of one sampled configuration. Its intervals run
// with Warm.RunInterval on a walk whose geometry matches cfg.WarmKey.
func NewCore(prog *isa.Program, cfg Config) *Core {
	return &Core{newCore(prog, cfg)}
}

// IntervalResult reports the measured window of one detailed interval.
type IntervalResult struct {
	// Retired is the number of on-trace instructions retired inside the
	// measurement window (the configured measure length when Complete).
	Retired uint64
	// Cycles is the window's cycle span: from the retirement of the last
	// warmup instruction to the retirement of the last measured one.
	Cycles int64
	// Mispredicted / CondBranches / Flushes are window deltas of the
	// corresponding Stats counters.
	Mispredicted uint64
	CondBranches uint64
	Flushes      uint64
	// Complete reports that the window closed by retiring its full
	// measurement length; a trace that ends mid-window leaves a partial
	// (possibly zero-retirement) interval.
	Complete bool
}

// Degenerate reports a window that retired nothing — the trace ended before
// the warmup did. Such intervals carry no timing information and must be
// excluded from the CPI estimate (but surfaced, not dropped silently).
func (r IntervalResult) Degenerate() bool { return r.Retired == 0 }

// CPI returns the window's cycles per instruction.
func (r IntervalResult) CPI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Retired)
}

// sampleWindow is the retirement-delimited measurement window RunInterval
// arms: it opens when the warmup-th on-trace instruction of the interval
// retires and closes when the (warmup+measure)-th does, excluding both the
// warmup and the drain tail from the measured cycle span.
type sampleWindow struct {
	armed  bool
	opened bool
	closed bool
	// startRetired/endRetired are absolute Stats.Retired marks.
	startRetired, endRetired uint64
	startCycle, endCycle     int64
	start, end               winCounters
}

// winCounters is the subset of Stats captured at window edges; deltas give
// the window's event counts for scaled per-kilo-instruction estimates.
type winCounters struct {
	misp, condBr, flushes uint64
}

func (s *Sim) winCounters() winCounters {
	return winCounters{misp: s.stats.Mispredicted, condBr: s.stats.CondBranches, flushes: s.stats.Flushes}
}

// winMark runs at each on-trace retirement while a window is armed.
func (s *Sim) winMark() {
	r := s.stats.Retired
	if !s.win.opened {
		if r < s.win.startRetired {
			return
		}
		s.win.opened = true
		s.win.startCycle = s.cycle
		s.win.start = s.winCounters()
	}
	if r >= s.win.endRetired {
		s.win.closed = true
		s.win.armed = false
		s.win.endCycle = s.cycle
		s.win.end = s.winCounters()
	}
}

// resetForResume readies the machinery for the next interval: a single
// on-trace stream pointing at the next trace entry, with the sampling
// debris a drain leaves — an open dpred session whose diverge branch never
// resolved, parked or off-trace streams, pending flushes, the fetchDone
// latch — cleared, and the scheduling state indexed by cycle (register
// ready times, issue reservations, store forwarding) emptied, since it may
// hold another configuration's clock.
func (s *Sim) resetForResume() {
	// Force-close a session left open across the boundary, mirroring the
	// doFlush cancellation path.
	if s.dp != nil {
		s.endSession(s.dp, trace.KindDpredFlushCancel, false, "sample-boundary", s.dp.branchPC)
		s.dp.pendingLoop = nil
		s.closeSession(s.dp)
	}
	// Drop pending flushes; their entries have already retired or squashed.
	for i := s.flHead; i < len(s.flushList); i++ {
		f := s.flushList[i]
		s.flushList[i] = nil
		s.releaseCk(f)
		s.decRef(f)
	}
	s.flushList = s.flushList[:0]
	s.flHead = 0
	// Collapse to one stream and repoint it at the trace.
	if len(s.streams) == 2 {
		s.recycleStream(s.streams[1])
		s.streams[1] = nil
		s.streams = s.streams[:1]
	}
	st := s.streams[0]
	st.onTrace = true
	st.parkedAt = parkNone
	st.path = -1
	st.callDepth = 0
	st.lastLine = -1
	st.stalledUntil = 0
	s.fetchDone = false
	s.rr = 0
	s.regReady = [64]int64{}
	clear(s.issueTag)
	clear(s.sfTag)
	clear(s.sfCyc)
	if tre, ok := s.tr.Peek(); ok {
		st.pc = tre.PC
	} else {
		st.parkedAt = parkDead
		s.fetchDone = true
	}
}

// RunInterval runs one detailed interval of c over win, a window w
// recorded: warmup instructions to re-train what functional warming cannot,
// then measure instructions under an armed measurement window, then a
// drain. The run starts from w's warm tables, history and RAS and leaves
// them as it found them (the tables journal every change and roll back), so
// any number of configurations can run the same window, each from the same
// state.
func (w *Warm) RunInterval(ctx context.Context, c *Core, win []emu.Trace, warmup, measure uint64) (IntervalResult, error) {
	if measure == 0 {
		return IntervalResult{}, fmt.Errorf("pipeline: interval measure length must be positive")
	}
	if w.sim == nil {
		w.sim = newSim(c.c)
		w.sim.tr = &traceReader{}
	}
	s := w.sim
	s.core = c.c
	s.tables = w.lend(s.cfg)
	defer func() {
		w.restore()
		c.c, s.core, s.tables = s.core, core{}, tables{}
	}()
	s.ctx = ctx
	s.tr.load(win)
	s.resetForResume()
	st := s.streams[0]
	st.hist = w.hist
	st.ras.CopyFrom(w.ras)
	base := s.stats.Retired
	s.win = sampleWindow{armed: true, startRetired: base + warmup, endRetired: base + warmup + measure}
	if warmup == 0 {
		// The window opens at the interval edge, before anything retires.
		s.win.opened = true
		s.win.startCycle = s.cycle
		s.win.start = s.winCounters()
	}
	err := s.runLoop()
	sw := &s.win
	sw.armed = false
	if err != nil {
		return IntervalResult{}, err
	}
	if sw.opened && !sw.closed {
		// Trace ended mid-window: close at the drain edge for a partial
		// (shorter) measurement rather than losing the interval entirely.
		sw.endCycle = s.cycle
		sw.end = s.winCounters()
	}
	res := IntervalResult{Complete: sw.closed}
	if sw.opened {
		res.Retired = s.stats.Retired - sw.startRetired
		res.Cycles = sw.endCycle - sw.startCycle
		res.Mispredicted = sw.end.misp - sw.start.misp
		res.CondBranches = sw.end.condBr - sw.start.condBr
		res.Flushes = sw.end.flushes - sw.start.flushes
	}
	return res, nil
}
