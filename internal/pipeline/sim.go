package pipeline

import (
	"context"
	"fmt"

	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/predecode"
	"dmp/internal/trace"
)

// Sim is one simulation instance. Create with New, run with Run.
type Sim struct {
	// core is the state that belongs to one configuration; a sampled run
	// swaps the cores of its configurations through one Sim (Warm).
	core
	// ctx, when non-nil, cancels the simulation: the run loop polls it at
	// block-batch boundaries (the trace reader refilling its 256-entry
	// batch) and every cancelCheckMask+1 cycles during drain phases, so a
	// cancelled run returns within a bounded amount of simulated work.
	ctx context.Context
	tr  *traceReader

	// tables are the predictor, confidence, BTB and cache tables: owned by
	// a full run, borrowed from a Warm walk for each sampled interval.
	tables

	seq int64

	// fq is the fetch queue (FIFO, seq order); head compaction is amortised.
	fq     []*entry
	fqHead int
	// rob is the reorder buffer (seq order).
	rob     []*entry
	robHead int

	regReady [64]int64
	// sfTag/sfCyc form the direct-mapped store-to-load forwarding table:
	// tags hold addr+1 (0 is empty), sfMask is len-1, and the table doubles
	// only when a store would evict a different in-flight address (pool.go).
	sfTag  []int64
	sfCyc  []int64
	sfMask int64

	// issueTag/issueCnt form the issue-bandwidth ring: tags hold the
	// reserved cycle (0 is empty), issueMask is len-1, and the ring doubles
	// before a reservation as far ahead as its length (pool.go).
	issueTag  []int64
	issueCnt  []uint16
	issueMask int64

	streams []*stream
	rr      int
	dp      *dpredSession

	// flushList holds dispatched willFlush/loopCond entries in seq order;
	// head compaction mirrors fq/rob.
	flushList []*entry
	flHead    int

	lastRetireCycle int64
	fetchDone       bool

	// win is the sampling measurement window (sample.go). It is armed only
	// inside RunInterval, so the full-fidelity retire path pays exactly one
	// predictable branch for it.
	win sampleWindow

	// Scratch buffers and free lists keeping the per-instruction path
	// allocation-free at steady state (pool.go).
	selRegs     []uint8
	entryPool   []*entry
	sessPool    []*dpredSession
	tablePool   []*[64]int64
	rasPool     []*bpred.RASSnapshot
	spareStream *stream
}

// core is the part of a Sim that belongs to one machine configuration: the
// configuration and program, the clock, and what the run accumulates.
type core struct {
	cfg  Config
	prog *isa.Program
	code []isa.Inst
	// recs is the predecoded view of code (shared with the emulator):
	// source/destination registers and latency class per PC, so dispatch
	// does not re-derive them through isa.Inst switches.
	recs []predecode.Rec
	// iHit/dHit mirror the configured L1 hit latencies (cfg.ICache/DCache
	// HitCycles) so the hot paths don't reach into package-level constants.
	iHit  int
	dHit  int
	cycle int64
	stats Stats
	// audit accumulates the per-branch session audit (always on: its cost
	// is per dpred session / flush, not per instruction).
	audit trace.AuditBuilder
	// fb is the usefulness-feedback table (DpredFeedback extension).
	fb map[int]*fbEntry
}

func newCore(prog *isa.Program, cfg Config) core {
	return core{
		cfg:  cfg,
		prog: prog,
		code: prog.Code,
		recs: predecode.Shared(prog).Recs,
		iHit: cfg.ICache.HitCycles,
		dHit: cfg.DCache.HitCycles,
	}
}

// issueHorizon is how far ahead of the current cycle issue bandwidth is
// tracked; a reservation beyond it is unconstrained.
const issueHorizon = 1 << 17

// tables is the microarchitectural state that outlives a pipeline flush and
// that functional warming trains: the branch predictor, the confidence
// estimator, the BTB and the cache hierarchy.
type tables struct {
	pred *bpred.Perceptron
	conf *bpred.Confidence
	btb  *bpred.BTB
	hier *cache.Hierarchy
}

func newTables(cfg Config) tables {
	return tables{
		pred: bpred.NewPerceptron(cfg.PerceptronTables, cfg.PerceptronHist),
		conf: bpred.NewConfidence(cfg.ConfEntries, cfg.ConfHistBits, cfg.ConfThreshold),
		btb:  bpred.NewBTB(cfg.BTBEntries),
		hier: cache.NewHierarchyFrom(cfg.hierConfig()),
	}
}

// New creates a simulator for an annotated program on the given input tape.
func New(prog *isa.Program, input []int64, cfg Config) *Sim {
	return NewFromMachine(emu.New(prog, input, 0), cfg)
}

// NewFromMachine creates a simulator that consumes its correct path from m,
// starting at m's current architectural state; on a fresh machine that is
// the program entry point, which is how New uses it. The simulator takes
// ownership of m for the duration of the run.
func NewFromMachine(m *emu.Machine, cfg Config) *Sim {
	s := newSim(newCore(m.Program(), cfg))
	s.tables = newTables(cfg)
	s.tr = newTraceReader(m, cfg.MaxInsts)
	s.streams[0].pc = m.PC
	return s
}

// newSim builds the pipeline machinery around c: everything but the tables
// and the trace source.
func newSim(c core) *Sim {
	return &Sim{
		core:      c,
		sfTag:     make([]int64, sfInitSize),
		sfCyc:     make([]int64, sfInitSize),
		sfMask:    sfInitSize - 1,
		issueTag:  make([]int64, issueInitSize),
		issueCnt:  make([]uint16, issueInitSize),
		issueMask: issueInitSize - 1,
		selRegs:   make([]uint8, 0, 64),
		streams:   []*stream{newStream(0, true, c.cfg.RASDepth)},
	}
}

// Run simulates to completion and returns the statistics.
func Run(prog *isa.Program, input []int64, cfg Config) (Stats, error) {
	return New(prog, input, cfg).Run()
}

// RunCtx is Run with cancellation: the simulation polls ctx at block-batch
// boundaries and returns an error wrapping ctx.Err() (so errors.Is matches
// context.Canceled / context.DeadlineExceeded) as soon as the context ends.
// A cancelled run's statistics are partial and must not be memoized.
func RunCtx(ctx context.Context, prog *isa.Program, input []int64, cfg Config) (Stats, error) {
	return New(prog, input, cfg).RunCtx(ctx)
}

// cancelCheckMask throttles context polling during drain phases (no trace
// refills): one Err() call every 4096 cycles is invisible next to the work
// those cycles represent, yet bounds cancellation latency to microseconds.
const cancelCheckMask = 1<<12 - 1

// RunCtx executes the simulation loop under a cancellation context.
func (s *Sim) RunCtx(ctx context.Context) (Stats, error) {
	s.ctx = ctx
	s.tr.ctx = ctx
	return s.Run()
}

// Run executes the simulation loop.
func (s *Sim) Run() (Stats, error) {
	if err := s.cfg.Validate(); err != nil {
		return s.stats, err
	}
	if err := s.runLoop(); err != nil {
		return s.stats, err
	}
	s.stats.Cycles = s.cycle
	s.stats.Audit = s.audit.Build()
	s.stats.ConfPVN = s.conf.PVN()
	s.stats.ConfCoverage = s.conf.Coverage()
	s.stats.ICache = s.hier.I.Stats()
	s.stats.DCache = s.hier.D.Stats()
	s.stats.L2 = s.hier.L2.Stats()
	return s.stats, nil
}

// runLoop cycles the machine until the trace is exhausted and the pipeline
// has drained. It is shared between Run (one trace, run to completion) and
// RunInterval (sampled mode: one window per call, resumed repeatedly); only
// Run finalises the Stats afterwards.
func (s *Sim) runLoop() error {
	s.lastRetireCycle = s.cycle
	for {
		if err := s.tr.Err(); err != nil {
			return fmt.Errorf("pipeline: functional execution: %w", err)
		}
		if s.ctx != nil && s.cycle&cancelCheckMask == 0 {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("pipeline: cancelled at cycle %d: %w", s.cycle, err)
			}
		}
		if s.tr.Done() && s.fqLen() == 0 && s.robLen() == 0 {
			return nil
		}
		s.checkFlush()
		s.retire()
		s.dispatch()
		s.fetch()
		s.cycle++
		if s.cycle-s.lastRetireCycle > s.cfg.WatchdogCycles {
			return fmt.Errorf("pipeline: watchdog: no retirement for %d cycles at cycle %d (rob=%d fq=%d)",
				s.cfg.WatchdogCycles, s.cycle, s.robLen(), s.fqLen())
		}
	}
}

func (s *Sim) fqLen() int  { return len(s.fq) - s.fqHead }
func (s *Sim) robLen() int { return len(s.rob) - s.robHead }

func (s *Sim) fqPush(e *entry) { s.fq = append(s.fq, e) }

func (s *Sim) fqPop() *entry {
	e := s.fq[s.fqHead]
	s.fq[s.fqHead] = nil
	s.fqHead++
	if s.fqHead > 4096 && s.fqHead*2 > len(s.fq) {
		n := copy(s.fq, s.fq[s.fqHead:])
		clearTail(s.fq[n:])
		s.fq = s.fq[:n]
		s.fqHead = 0
	}
	return e
}

// clearTail zeroes vacated slice slots after a head compaction so the backing
// array retains no pointers to dead entries.
func clearTail(tail []*entry) {
	for i := range tail {
		tail[i] = nil
	}
}

// findIssueSlot reserves the earliest issue cycle >= earliest with free
// issue bandwidth. A search that reaches d >= len(issueTag) cycles ahead
// reserves nothing and returns -d, and the caller finishes it with
// growIssue; keeping the growth out of this loop lets it inline into
// dispatchEntry.
func (s *Sim) findIssueSlot(earliest int64) int64 {
	for c := earliest; ; c++ {
		d := c - s.cycle
		if d > issueHorizon {
			// Too far in the future to track bandwidth; unconstrained.
			return c
		}
		if d > s.issueMask {
			return -d
		}
		i := c & s.issueMask
		if s.issueTag[i] != c {
			s.issueTag[i] = c
			s.issueCnt[i] = 1
			return c
		}
		if int(s.issueCnt[i]) < s.cfg.IssueWidth {
			s.issueCnt[i]++
			return c
		}
	}
}

// tableFor returns the register ready table the entry schedules against.
func (s *Sim) tableFor(e *entry) *[64]int64 {
	if e.sess != nil && !e.sess.isLoop && e.path >= 0 && e.sess.tablesReady {
		return &e.sess.tables[e.path]
	}
	return &s.regReady
}

// latencyOf returns the execution latency of an instruction; loads consult
// the cache model (on-trace addresses) or assume an L1 hit (wrong path).
func (s *Sim) latencyOf(e *entry, rec *predecode.Rec) int {
	switch rec.Lat {
	case predecode.LatMul:
		return s.cfg.LatMul
	case predecode.LatDiv:
		return s.cfg.LatDiv
	case predecode.LatLoad:
		if e.onTrace && e.addr >= 0 {
			return s.hier.D.Access(cache.DataAddr(e.addr))
		}
		return s.dHit
	default:
		return s.cfg.LatALU
	}
}

// dispatch moves entries from the fetch queue into the window, computing
// their dataflow schedule.
func (s *Sim) dispatch() {
	n := 0
	for n < s.cfg.IssueWidth && s.fqLen() > 0 {
		e := s.fq[s.fqHead]
		if e.fetchCyc+int64(s.cfg.FrontEndDelay) > s.cycle {
			break
		}
		if e.kind == kindMarker {
			s.fqPop()
			s.applyMarker(e)
			s.decRef(e)
			continue
		}
		if s.robLen() >= s.cfg.ROBSize {
			break
		}
		s.fqPop()
		s.dispatchEntry(e)
		s.rob = append(s.rob, e)
		n++
	}
}

// applyMarker ends a dpred session on the rename side: the main register
// table becomes the correct path's table.
func (s *Sim) applyMarker(e *entry) {
	sess := e.sess
	if sess == nil || sess.isLoop || !sess.tablesReady {
		return
	}
	s.regReady = sess.tables[sess.actualPath]
}

func (s *Sim) dispatchEntry(e *entry) {
	e.dispatched = true
	table := s.tableFor(e)

	if e.kind == kindSelect {
		ready := table[e.selReg]
		if e.sess != nil && e.sess.resolveCyc > ready {
			ready = e.sess.resolveCyc
		}
		earliest := max64(s.cycle+1, ready)
		issue := s.findIssueSlot(earliest)
		if issue < 0 {
			issue = s.growIssue(earliest, -issue)
		}
		e.doneCyc = issue + 1
		table[e.selReg] = e.doneCyc
		return
	}

	// Source readiness, from the predecoded source-register list.
	rec := &s.recs[e.pc]
	var ready int64
	if rec.NR >= 1 {
		ready = table[rec.R1]
		if rec.NR == 2 && table[rec.R2] > ready {
			ready = table[rec.R2]
		}
	}
	if e.inst.Op == isa.OpLd && e.onTrace && e.addr >= 0 {
		if t, ok := s.sfLookup(e.addr); ok && t > ready {
			ready = t
		}
	}
	earliest := max64(s.cycle+1, ready)
	issue := s.findIssueSlot(earliest)
	if issue < 0 {
		issue = s.growIssue(earliest, -issue)
	}
	e.doneCyc = issue + int64(s.latencyOf(e, rec))

	if rec.Rd > 0 {
		table[rec.Rd] = e.doneCyc
	}
	if e.inst.Op == isa.OpSt && e.onTrace && e.addr >= 0 && !s.sfStore(e.addr, e.doneCyc) {
		s.growSF(e.addr, e.doneCyc)
	}

	if e.sess != nil {
		if e.isDivBranch {
			// Fork the per-path tables at the diverge branch (forward
			// hammocks) and record the resolution time.
			e.sess.resolveCyc = e.doneCyc
			if !e.sess.isLoop {
				e.sess.tables[0] = s.regReady
				e.sess.tables[1] = s.regReady
				e.sess.tablesReady = true
			}
		} else if e.sess.isLoop && e.pc == e.sess.branchPC && e.inst.IsCondBranch() {
			// Later predicated instances of the loop branch extend the
			// session's resolution horizon.
			if e.doneCyc > e.sess.resolveCyc {
				e.sess.resolveCyc = e.doneCyc
			}
		}
	}

	if e.willFlush || e.loopCond {
		ck := s.allocTable()
		*ck = *table
		e.tableCk = ck
		e.refs++
		s.flushList = append(s.flushList, e)
	}
}

func (s *Sim) flushLen() int { return len(s.flushList) - s.flHead }

// flushPopCancelled removes the cancelled entry at the pending-flush head,
// using a head index (not a re-slice) so doFlush's flushList[:0] reuse keeps
// the backing array.
func (s *Sim) flushPopCancelled(e *entry) {
	s.flushList[s.flHead] = nil
	s.flHead++
	if s.flushLen() == 0 {
		s.flushList = s.flushList[:0]
		s.flHead = 0
	}
	s.releaseCk(e)
	s.decRef(e)
}

// checkFlush fires the oldest resolved pending flush, if any.
func (s *Sim) checkFlush() {
	for s.flushLen() > 0 {
		e := s.flushList[s.flHead]
		if !e.willFlush && !e.loopCond {
			// Cancelled (loop late-exit rejoin).
			s.flushPopCancelled(e)
			continue
		}
		if e.doneCyc > s.cycle {
			return
		}
		if e.loopCond {
			s.stats.LoopNoExit++
			if e.sess != nil {
				s.fbRecord(e.sess.branchPC, false)
			}
		}
		s.doFlush(e)
		return
	}
}

// event routes an audit-relevant event to the always-on audit builder and,
// when tracing is enabled, to the configured tracer. High-volume events that
// carry no audit information (fetch breaks) skip this path and are emitted
// at their call sites under an inline nil-Tracer check instead.
func (s *Sim) event(ev trace.Event) {
	s.audit.Add(ev)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Event(ev)
	}
}

// endSession emits the end-of-session event for sess: the outcome kind, the
// cycle span the session was live (its dpred overhead), and whether ending
// this way avoided a pipeline flush.
func (s *Sim) endSession(sess *dpredSession, kind trace.Kind, saved bool, why string, pc int) {
	s.event(trace.Event{
		Kind: kind, Cycle: s.cycle, Seq: sess.branchSeq,
		PC: pc, Branch: sess.branchPC, Loop: sess.isLoop,
		Saved: saved, Overhead: s.cycle - sess.enterCyc, Why: why,
	})
}

func (s *Sim) doFlush(e *entry) {
	s.stats.Flushes++
	s.event(trace.Event{Kind: trace.KindFlush, Cycle: s.cycle, Seq: e.seq, PC: e.pc, Branch: e.pc, Loop: e.loopCond})
	// Squash the ROB tail younger than e.
	lo, hi := s.robHead, len(s.rob)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.rob[mid].seq > e.seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for i := lo; i < len(s.rob); i++ {
		s.decRef(s.rob[i])
		s.rob[i] = nil
	}
	s.rob = s.rob[:lo]
	// The whole fetch queue is younger than any dispatched entry.
	for i := s.fqHead; i < len(s.fq); i++ {
		s.decRef(s.fq[i])
		s.fq[i] = nil
	}
	s.fq = s.fq[:0]
	s.fqHead = 0
	// Restore the rename-side table.
	if e.tableCk != nil {
		s.regReady = *e.tableCk
	}
	// A flush triggered by a branch fetched inside a predicated region is an
	// "inner" misprediction (the cost-benefit model's assumption 2 being
	// violated), whether or not the session is still open when it resolves.
	if e.sess != nil && !e.isDivBranch && !e.loopCond {
		s.stats.DpredInnerFlush++
	}
	// Cancel any active dpred session. A loop session flushed by its own
	// pending no-exit entry ends as the no-exit outcome; any other flush
	// under an open session is a cancellation.
	if s.dp != nil {
		if e.loopCond && e.sess == s.dp {
			s.endSession(s.dp, trace.KindLoopNoExit, false, "", e.pc)
		} else {
			s.endSession(s.dp, trace.KindDpredFlushCancel, false, "", e.pc)
		}
		s.dp.pendingLoop = nil
		s.closeSession(s.dp)
	}
	// Reset the front end to a single on-trace stream; a dropped second
	// dpred stream is parked for the next session.
	if len(s.streams) == 2 {
		s.recycleStream(s.streams[1])
		s.streams[1] = nil
	}
	st := s.streams[0]
	s.streams = s.streams[:1]
	st.pc = e.resumePC
	st.onTrace = true
	st.parkedAt = parkNone
	st.path = -1
	st.hist = e.ckHist
	if e.ckRAS != nil {
		st.ras.Restore(*e.ckRAS)
	}
	st.stalledUntil = max64(s.cycle+1, e.fetchCyc+int64(s.cfg.MinMispPenalty))
	st.lastLine = -1
	// Drop this and younger pending flushes; their checkpoints return to the
	// pools (the entries themselves may stay in the ROB until they retire).
	old := s.flushList
	keep := old[:0]
	for _, f := range old[s.flHead:] {
		if f.seq < e.seq {
			keep = append(keep, f)
		} else {
			s.releaseCk(f)
			s.decRef(f)
		}
	}
	clearTail(old[len(keep):])
	s.flushList = keep
	s.flHead = 0
}

// retire commits completed entries in order.
func (s *Sim) retire() {
	n := 0
	for n < s.cfg.RetireWidth && s.robLen() > 0 {
		e := s.rob[s.robHead]
		if !e.dispatched {
			break
		}
		eff := e.doneCyc
		if e.isPredFalse() && e.sess.resolveCyc >= 0 {
			// Predicated-FALSE instructions become NOPs once the diverge
			// branch resolves; they need not wait for their own execution.
			if r := max64(e.sess.resolveCyc, e.fetchCyc+int64(s.cfg.FrontEndDelay)+1); r < eff {
				eff = r
			}
		}
		if eff > s.cycle {
			break
		}
		s.rob[s.robHead] = nil
		s.robHead++
		if s.robHead > 4096 && s.robHead*2 > len(s.rob) {
			nn := copy(s.rob, s.rob[s.robHead:])
			clearTail(s.rob[nn:])
			s.rob = s.rob[:nn]
			s.robHead = 0
		}
		n++
		s.lastRetireCycle = s.cycle
		s.retireEntry(e)
		s.decRef(e)
	}
}

func (s *Sim) retireEntry(e *entry) {
	switch {
	case e.kind == kindSelect:
		s.stats.SelectUops++
	case e.isPredFalse():
		s.stats.Nopped++
	case e.onTrace:
		s.stats.Retired++
		if e.inst.IsCondBranch() {
			s.stats.CondBranches++
			if e.misp {
				s.stats.Mispredicted++
			}
			s.pred.Update(e.pc, e.fetchHist, e.taken)
			s.conf.Update(e.pc, e.fetchHist, e.misp)
		}
		if s.win.armed {
			s.winMark()
		}
	default:
		// Wrong-path non-predicated entries are normally squashed before the
		// retire pointer reaches them; entries that slip through (e.g. a
		// squash raced with a cancelled conditional flush) retire silently.
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
