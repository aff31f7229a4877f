package pipeline

import (
	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/trace"
)

// stream is one fetch stream. The machine has one stream normally and two
// during a forward dpred session.
type stream struct {
	pc      int
	onTrace bool
	hist    bpred.History
	ras     *bpred.RAS
	// stalledUntil blocks fetch until the given cycle (I-cache miss, BTB
	// bubble, flush redirect).
	stalledUntil int64
	// parkedAt is parkNone when fetching, parkRet/parkDead, or the CFM
	// address the stream stopped at.
	parkedAt int
	// path is the dpred path tag applied to fetched entries (-1: none).
	path int8
	// callDepth counts calls since dpred entry, so that a return CFM only
	// parks on a return at the diverge branch's own nesting level.
	callDepth int
	// lastLine tracks the I-cache line of the previous fetch.
	lastLine int
}

func newStream(pc int, onTrace bool, rasDepth int) *stream {
	return &stream{pc: pc, onTrace: onTrace, ras: bpred.NewRAS(rasDepth), parkedAt: parkNone, path: -1, lastLine: -1}
}

func (st *stream) parked() bool { return st.parkedAt != parkNone }

// fetch runs the front end for one cycle.
func (s *Sim) fetch() {
	if s.fetchDone {
		return
	}
	// End an active dpred session whose diverge branch has resolved.
	if s.dp != nil && s.dp.resolveCyc >= 0 && s.cycle > s.dp.resolveCyc {
		if s.dp.isLoop {
			s.endLoopDpredByResolve()
		} else {
			s.endForwardDpred(false)
		}
	}

	// Pick the stream to fetch from this cycle (round-robin during dpred).
	var st *stream
	if len(s.streams) == 2 {
		first := s.rr
		s.rr ^= 1
		for _, i := range []int{first, 1 - first} {
			c := s.streams[i]
			if !c.parked() && c.stalledUntil <= s.cycle {
				st = c
				break
			}
		}
	} else {
		c := s.streams[0]
		if !c.parked() && c.stalledUntil <= s.cycle {
			st = c
		}
	}
	if st == nil {
		return
	}

	notTaken := 0
	for i := 0; i < s.cfg.FetchWidth; i++ {
		if s.fqLen() >= s.cfg.FetchQSize {
			return
		}
		// Forward dpred: park at a CFM point before fetching it. If parking
		// completes a merge and this stream carries on from the CFM, fetch
		// continues in the same cycle (the merge point is a fall-through).
		if s.dp != nil && !s.dp.isLoop && st.path >= 0 && s.dp.isCFM(st.pc) {
			s.parkStream(st, st.pc)
			if st.parked() || len(s.streams) != 1 || s.streams[0] != st {
				return
			}
		}
		// Fetch break at I-cache line boundaries; miss stalls the stream.
		line := st.pc >> 3
		if line != st.lastLine {
			if i > 0 {
				if s.cfg.Tracer != nil {
					s.cfg.Tracer.Event(trace.Event{Kind: trace.KindFetchBreak, Cycle: s.cycle, Seq: s.seq, PC: st.pc, Branch: -1, Why: "line"})
				}
				return // line-boundary fetch break
			}
			lat := s.hier.I.Access(cache.InstAddr(st.pc))
			st.lastLine = line
			if lat > s.iHit {
				st.stalledUntil = s.cycle + int64(lat)
				if s.cfg.Tracer != nil {
					s.cfg.Tracer.Event(trace.Event{Kind: trace.KindFetchBreak, Cycle: s.cycle, Seq: s.seq, PC: st.pc, Branch: -1, Why: "icache-miss"})
				}
				return
			}
		}
		if st.pc < 0 || st.pc >= len(s.code) {
			st.parkedAt = parkDead
			return
		}
		cont, nt := s.fetchOne(st)
		notTaken += nt
		if !cont {
			return
		}
		if notTaken >= s.cfg.MaxNotTakenBr {
			return
		}
	}
}

// fetchOne fetches a single instruction from the stream. It returns whether
// fetch may continue this cycle and how many not-taken conditional branches
// were passed (0 or 1).
func (s *Sim) fetchOne(st *stream) (cont bool, notTaken int) {
	if st.onTrace {
		return s.fetchOnTrace(st)
	}
	return s.fetchOffTrace(st)
}

func (s *Sim) newEntry(st *stream, pc int, in isa.Inst, onTrace bool) *entry {
	s.seq++
	// allocEntry hands back a zeroed entry (refs already 1); assigning the
	// handful of non-zero fields directly avoids constructing and copying a
	// full struct literal on the hottest path in the simulator.
	e := s.allocEntry()
	e.kind = kindInst
	e.seq = s.seq
	e.pc = pc
	e.inst = in
	e.fetchCyc = s.cycle
	e.onTrace = onTrace
	e.addr = -1
	e.path = -1
	s.stats.Fetched++
	if !onTrace {
		s.stats.WrongPathFetched++
	}
	if s.dp != nil {
		e.sess = s.dp
		s.dp.refs++
		e.path = st.path
		s.dp.noteWrite(st.path, in)
	}
	s.fqPush(e)
	return e
}

// fetchOnTrace consumes the next trace entry through the predictor-driven
// front end.
func (s *Sim) fetchOnTrace(st *stream) (bool, int) {
	tre, ok := s.tr.Peek()
	if !ok {
		st.parkedAt = parkDead
		s.fetchDone = true
		return false, 0
	}
	if tre.PC != st.pc {
		// Internal inconsistency; surface via the watchdog rather than
		// corrupting state.
		st.parkedAt = parkDead
		return false, 0
	}
	s.tr.Next()
	in := s.code[tre.PC]
	e := s.newEntry(st, st.pc, in, true)
	e.taken = tre.Taken
	e.addr = tre.Addr

	switch {
	case in.IsCondBranch():
		return s.fetchOnTraceCond(st, e, tre)
	case in.Op == isa.OpJmp:
		st.pc = in.Target
		return s.takenRedirect(st, e.pc, in.Target), 0
	case in.Op == isa.OpCall:
		st.ras.Push(e.pc + 1)
		st.callDepth++
		st.pc = in.Target
		return s.takenRedirect(st, e.pc, in.Target), 0
	case in.Op == isa.OpRet:
		// Return CFM: park after a return at the diverge branch's own call
		// depth during forward dpred.
		predTarget, popOK := st.ras.Pop()
		actual := tre.NextPC
		if st.callDepth > 0 {
			st.callDepth--
		} else if s.dp != nil && !s.dp.isLoop && st.path >= 0 && s.dp.hasRetCFM() {
			st.pc = actual // resume point for the correct path
			s.parkStream(st, parkRet)
			return false, 0
		}
		if !popOK || predTarget != actual {
			s.onTraceControlMisp(st, e)
			return false, 0
		}
		st.pc = actual
		return false, 0 // taken redirect ends the cycle
	case in.Op == isa.OpCallR || in.Op == isa.OpJr:
		actual := tre.NextPC
		if in.Op == isa.OpCallR {
			st.ras.Push(e.pc + 1)
		}
		predTarget, hit := s.btb.Lookup(e.pc)
		s.btb.Update(e.pc, actual)
		if !hit || predTarget != actual {
			s.onTraceControlMisp(st, e)
			return false, 0
		}
		st.pc = actual
		return false, 0
	case in.Op == isa.OpHalt:
		st.parkedAt = parkDead
		s.fetchDone = true
		return false, 0
	default:
		st.pc = e.pc + 1
		return true, 0
	}
}

// fetchOnTraceCond handles an on-trace conditional branch: prediction,
// dpred-mode entry, misprediction bookkeeping and redirection.
func (s *Sim) fetchOnTraceCond(st *stream, e *entry, tre *traceEntry) (bool, int) {
	in := e.inst
	e.fetchHist = st.hist
	e.predTaken = s.pred.Predict(e.pc, st.hist)
	e.misp = e.predTaken != e.taken

	// Dynamic predication entry decision.
	if s.cfg.DMP && s.dp == nil && st.path < 0 {
		if annot := s.prog.Annots[e.pc]; annot != nil {
			lowConf := s.conf.LowConfidence(e.pc, st.hist)
			if annot.Short || lowConf {
				if s.fbThrottled(e.pc) {
					s.stats.DpredThrottled++
					s.event(trace.Event{Kind: trace.KindDpredThrottled, Cycle: s.cycle, Seq: e.seq, PC: e.pc, Branch: e.pc})
				} else if annot.Loop {
					return s.enterLoopDpred(st, e, annot)
				} else {
					return s.enterForwardDpred(st, e, annot)
				}
			}
		}
	}

	// Loop dpred: a predicated loop-branch instance.
	if s.dp != nil && s.dp.isLoop && e.pc == s.dp.branchPC {
		return s.onTraceLoopInstance(st, e)
	}

	st.hist = st.hist.Push(e.predTaken)
	if e.misp {
		// The front end follows the wrong direction; flush at resolve.
		s.markFlush(st, e)
		st.onTrace = false
		if e.predTaken {
			st.pc = in.Target
			return s.takenRedirect(st, e.pc, in.Target), 0
		}
		st.pc = e.pc + 1
		return true, 1
	}
	if e.predTaken {
		st.pc = in.Target
		return s.takenRedirect(st, e.pc, in.Target), 0
	}
	st.pc = e.pc + 1
	return true, 1
}

// markFlush prepares flush-recovery state on a mispredicted on-trace entry.
func (s *Sim) markFlush(st *stream, e *entry) {
	e.willFlush = true
	e.ckHist = e.fetchHist.Push(e.taken)
	e.ckRAS = s.allocRASSnap()
	st.ras.SnapshotInto(e.ckRAS)
	if nxt, ok := s.tr.Peek(); ok {
		e.resumePC = nxt.PC
	} else {
		e.resumePC = e.pc // trace ends here; resume is moot
	}
}

// onTraceControlMisp handles a mispredicted return/indirect target: the
// front end has no correct target, so the stream parks until the flush.
func (s *Sim) onTraceControlMisp(st *stream, e *entry) {
	e.fetchHist = st.hist
	e.misp = true
	s.markFlush(st, e)
	st.onTrace = false
	st.parkedAt = parkDead
}

// takenRedirect models the taken-branch fetch break and the BTB bubble on a
// first-seen taken control transfer. It always ends the fetch cycle.
func (s *Sim) takenRedirect(st *stream, pc, target int) bool {
	if _, hit := s.btb.Lookup(pc); !hit {
		s.btb.Update(pc, target)
		st.stalledUntil = s.cycle + 1 // decode-redirect bubble
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Event(trace.Event{Kind: trace.KindFetchBreak, Cycle: s.cycle, Seq: s.seq, PC: pc, Branch: target, Why: "taken"})
	}
	return false
}

// fetchOffTrace walks the static code along predicted directions.
func (s *Sim) fetchOffTrace(st *stream) (bool, int) {
	in := s.code[st.pc]
	e := s.newEntry(st, st.pc, in, false)

	switch {
	case in.IsCondBranch():
		// Loop dpred: an extra (wrong-path) loop-branch instance.
		if s.dp != nil && s.dp.isLoop && e.pc == s.dp.branchPC {
			return s.offTraceLoopInstance(st, e)
		}
		e.fetchHist = st.hist
		e.predTaken = s.pred.Predict(e.pc, st.hist)
		st.hist = st.hist.Push(e.predTaken)
		if e.predTaken {
			st.pc = in.Target
			return s.takenRedirect(st, e.pc, in.Target), 0
		}
		st.pc = e.pc + 1
		return true, 1
	case in.Op == isa.OpJmp:
		st.pc = in.Target
		return s.takenRedirect(st, e.pc, in.Target), 0
	case in.Op == isa.OpCall:
		st.ras.Push(e.pc + 1)
		st.callDepth++
		st.pc = in.Target
		return s.takenRedirect(st, e.pc, in.Target), 0
	case in.Op == isa.OpRet:
		target, ok := st.ras.Pop()
		if st.callDepth > 0 {
			st.callDepth--
		} else if s.dp != nil && !s.dp.isLoop && st.path >= 0 && s.dp.hasRetCFM() {
			st.pc = target
			s.parkStream(st, parkRet)
			return false, 0
		}
		if !ok {
			st.parkedAt = parkDead
			return false, 0
		}
		st.pc = target
		return false, 0
	case in.Op == isa.OpCallR || in.Op == isa.OpJr:
		target, hit := s.btb.Lookup(e.pc)
		if in.Op == isa.OpCallR {
			st.ras.Push(e.pc + 1)
		}
		if !hit {
			st.parkedAt = parkDead
			return false, 0
		}
		st.pc = target
		return false, 0
	case in.Op == isa.OpHalt:
		st.parkedAt = parkDead
		return false, 0
	default:
		st.pc = e.pc + 1
		return true, 0
	}
}

// traceEntry aliases the emulator trace record.
type traceEntry = emu.Trace
