package pipeline

import "dmp/internal/bpred"

// This file implements the simulator's steady-state allocation discipline.
// The hot loop processes one entry per fetched instruction and one checkpoint
// per pending flush; all of them are recycled through per-Sim free lists so
// that, once the structures have warmed up, simulating an instruction
// performs no heap allocation at all (see TestSteadyStateAllocs and
// BenchmarkDMPRun).
//
// Ownership model: an entry is referenced by exactly one of the fetch queue
// or the reorder buffer, plus optionally the pending-flush list. entry.refs
// counts those containers; each removal calls decRef and the entry returns to
// the pool when the count reaches zero. dpredSession.pendingLoop deliberately
// does not count: it is only read while its session is open, and every path
// that closes a session clears it.

// allocEntry returns a zeroed entry from the pool (or a fresh one) with a
// reference count of 1 for the container it is about to enter.
// allocEntry returns an entry with refs == 1 and every other field zero:
// fresh allocations are zeroed by the runtime and decRef zeroes entries
// before pooling them. Callers rely on this to set only non-zero fields.
func (s *Sim) allocEntry() *entry {
	n := len(s.entryPool)
	if n == 0 {
		return &entry{refs: 1}
	}
	e := s.entryPool[n-1]
	s.entryPool[n-1] = nil
	s.entryPool = s.entryPool[:n-1]
	e.refs = 1
	return e
}

// decRef drops one container reference; the last drop recycles the entry.
func (s *Sim) decRef(e *entry) {
	e.refs--
	if e.refs > 0 {
		return
	}
	s.releaseCk(e)
	if e.sess != nil {
		s.releaseSess(e.sess)
	}
	*e = entry{}
	s.entryPool = append(s.entryPool, e)
}

// releaseCk returns the entry's flush-recovery checkpoints to their pools.
// Safe to call eagerly once a flush has fired or been cancelled: the entry
// may still sit in the reorder buffer, but nothing reads the checkpoints
// after the pending flush is gone.
func (s *Sim) releaseCk(e *entry) {
	if e.tableCk != nil {
		s.tablePool = append(s.tablePool, e.tableCk)
		e.tableCk = nil
	}
	if e.ckRAS != nil {
		s.rasPool = append(s.rasPool, e.ckRAS)
		e.ckRAS = nil
	}
}

// allocSession returns a zeroed dpred session from the pool with one
// reference for s.dp; the caller fills in the per-session fields.
func (s *Sim) allocSession() *dpredSession {
	n := len(s.sessPool)
	if n == 0 {
		return &dpredSession{refs: 1}
	}
	d := s.sessPool[n-1]
	s.sessPool[n-1] = nil
	s.sessPool = s.sessPool[:n-1]
	d.refs = 1
	return d
}

// releaseSess drops one session reference; the last drop recycles it. A
// session outlives its fetch-side close as long as entries tagged with it
// remain in the machine (predicated-FALSE accounting reads e.sess at retire).
func (s *Sim) releaseSess(d *dpredSession) {
	d.refs--
	if d.refs > 0 {
		return
	}
	*d = dpredSession{}
	s.sessPool = append(s.sessPool, d)
}

// closeSession ends the fetch-side session and drops the s.dp reference.
func (s *Sim) closeSession(d *dpredSession) {
	d.ended = true
	s.dp = nil
	s.releaseSess(d)
}

// allocTable returns a rename-table checkpoint from the pool.
func (s *Sim) allocTable() *[64]int64 {
	n := len(s.tablePool)
	if n == 0 {
		return new([64]int64)
	}
	ck := s.tablePool[n-1]
	s.tablePool[n-1] = nil
	s.tablePool = s.tablePool[:n-1]
	return ck
}

// allocRASSnap returns a RAS checkpoint from the pool; the caller fills it
// with RAS.SnapshotInto, which reuses the snapshot's backing array.
func (s *Sim) allocRASSnap() *bpred.RASSnapshot {
	n := len(s.rasPool)
	if n == 0 {
		return new(bpred.RASSnapshot)
	}
	ck := s.rasPool[n-1]
	s.rasPool[n-1] = nil
	s.rasPool = s.rasPool[:n-1]
	return ck
}

// allocStream returns a reset fetch stream, reusing the spare one (and its
// RAS) left behind by the previous dpred session's collapse.
func (s *Sim) allocStream(pc int, onTrace bool) *stream {
	st := s.spareStream
	if st == nil {
		return newStream(pc, onTrace, s.cfg.RASDepth)
	}
	s.spareStream = nil
	ras := st.ras
	*st = stream{pc: pc, onTrace: onTrace, ras: ras, parkedAt: parkNone, path: -1, lastLine: -1}
	return st
}

// recycleStream parks a dropped second fetch stream for the next session.
func (s *Sim) recycleStream(st *stream) {
	if s.spareStream == nil && st != nil {
		s.spareStream = st
	}
}

// The issue-bandwidth ring and the store-to-load forwarding table start
// small and double only when a run needs the room, so a Sim does not
// allocate their largest sizes up front. Both give the same issue cycles as
// fixed tables of their largest sizes (TestGrowableTablesMatchFixed). The
// hot paths, findIssueSlot and sfStore, report a miss instead of growing,
// so that they still inline into dispatchEntry.

// issueInitSize is the issue ring's starting length. No corpus run reserves
// more than 4K cycles ahead.
const issueInitSize = 1 << 12

// growIssue finishes a findIssueSlot search that reached d cycles ahead:
// it doubles the ring until d < len and searches again from earliest. Every
// live reservation lies in (cycle, cycle+len), so distinct live cycles never
// share a slot, and a dead tag (at or before cycle) can never equal a
// queried cycle, which is at least cycle+1; only live tags are rehashed.
// Tags start at 0, which no reservation uses (c >= cycle+1 >= 1). The
// horizon caps d at issueHorizon, so the ring stops at 2*issueHorizon.
func (s *Sim) growIssue(earliest, d int64) int64 {
	for {
		n := int64(len(s.issueTag))
		for d >= n {
			n *= 2
		}
		tag, cnt := make([]int64, n), make([]uint16, n)
		for i, c := range s.issueTag {
			if c > s.cycle {
				tag[c&(n-1)], cnt[c&(n-1)] = c, s.issueCnt[i]
			}
		}
		s.issueTag, s.issueCnt, s.issueMask = tag, cnt, n-1
		c := s.findIssueSlot(earliest)
		if c >= 0 {
			return c
		}
		d = -c
	}
}

// Direct-mapped store-to-load forwarding table, replacing the unbounded
// map[addr]doneCyc the simulator originally grew for the life of a run.
//
// A store installs (addr+1, doneCyc) at addr's slot (tag 0 is empty, and
// both call sites require addr >= 0); a load forwards the recorded
// completion cycle only on an exact tag hit. Stale entries are
// self-invalidating — a recorded cycle at or before the current cycle cannot
// raise a load's issue slot (issue is already floored at cycle+1), so only
// stores still in flight ever matter. The table is deliberately *not*
// cleared on a flush, which is the conservative direction: stores older than
// the flush point survive in the window and must keep constraining later
// loads, while squashed wrong-path stores never wrote the table (only
// on-trace stores do) and squashed-then-refetched on-trace stores cannot
// exist (trace consumption stops once a flush is pending).
//
// The table starts at sfInitSize slots and behaves exactly like a fixed
// storeFwdSize-slot table: a store evicts the slot's entry as the full table
// would when it holds the same address, a dead one, or one the full table
// maps to the same slot; otherwise the table doubles until the two addresses
// separate. Live entries therefore never alias, and an entry the full table
// would keep in flight is never lost. The only conflict eviction left is the
// full table's own; the golden differential suite (harness
// TestPipelineMatchesEmulator) pins that it reproduces the map's Stats
// bit-for-bit across the whole corpus.
const (
	sfInitSize   = 1 << 10
	storeFwdSize = 1 << 16 // largest size; ~128× the instruction window
)

// sfLookup returns the completion cycle of the last store to addr, if the
// table still holds it.
func (s *Sim) sfLookup(addr int64) (int64, bool) {
	i := addr & s.sfMask
	if s.sfTag[i] != addr+1 {
		return 0, false
	}
	return s.sfCyc[i], true
}

// sfStore records the completion cycle of a store to addr. It stores
// nothing and returns false when the slot holds an in-flight store (an empty
// slot's cycle is 0) to an address the full table keeps in a different
// slot; the caller then calls growSF.
func (s *Sim) sfStore(addr, doneCyc int64) bool {
	i := addr & s.sfMask
	if s.sfCyc[i] > s.cycle && (s.sfTag[i]-1)&(storeFwdSize-1) != addr&(storeFwdSize-1) {
		return false
	}
	s.sfTag[i] = addr + 1
	s.sfCyc[i] = doneCyc
	return true
}

// growSF doubles the store-forwarding table until sfStore can record the
// store, rehashing only in-flight entries. Entries from distinct slots land
// in distinct slots, so none is lost.
func (s *Sim) growSF(addr, doneCyc int64) {
	for {
		n := int64(len(s.sfTag)) * 2
		tag, cyc := make([]int64, n), make([]int64, n)
		for i, t := range s.sfTag {
			if s.sfCyc[i] > s.cycle {
				tag[(t-1)&(n-1)], cyc[(t-1)&(n-1)] = t, s.sfCyc[i]
			}
		}
		s.sfTag, s.sfCyc, s.sfMask = tag, cyc, n-1
		if s.sfStore(addr, doneCyc) {
			return
		}
	}
}
