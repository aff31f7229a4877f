package bpred

import "dmp/internal/undo"

// BTB is a direct-mapped branch target buffer with tags.
type BTB struct {
	ents []btbEntry
	mask int
	undo undo.Log[btbEntry]
}

type btbEntry struct{ tag, target int }

// BTBDefaultEntries matches Table 1 (4K-entry BTB).
const BTBDefaultEntries = 4096

// NewBTB creates a BTB with the given number of entries (rounded up to a
// power of two).
func NewBTB(entries int) *BTB {
	if entries <= 0 {
		entries = BTBDefaultEntries
	}
	entries = ceilPow2(entries)
	b := &BTB{ents: make([]btbEntry, entries), mask: entries - 1}
	for i := range b.ents {
		b.ents[i].tag = -1
	}
	return b
}

// Lookup returns the predicted target of the control instruction at pc.
func (b *BTB) Lookup(pc int) (target int, hit bool) {
	e := &b.ents[pc&b.mask]
	if e.tag != pc {
		return 0, false
	}
	return e.target, true
}

// Update installs or refreshes the target for pc.
func (b *BTB) Update(pc, target int) {
	i := pc & b.mask
	if b.undo.On() {
		b.undo.Save(b.ents, i)
	}
	b.ents[i] = btbEntry{pc, target}
}

// Journal starts recording every change to b, so that Rollback can undo
// them.
func (b *BTB) Journal() { b.undo.Start(len(b.ents)) }

// Rollback restores b as it was at Journal and stops recording.
func (b *BTB) Rollback() { b.undo.Rollback(b.ents) }

// RAS is a fixed-depth return address stack. Overflow wraps (overwriting the
// oldest entry) and underflow returns garbage with ok=false, matching real
// hardware behaviour.
type RAS struct {
	stack []int
	top   int // number of valid entries, saturating at len(stack)
	pos   int // circular write position
}

// RASDefaultEntries matches Table 1 (64-entry return address stack).
const RASDefaultEntries = 64

// NewRAS creates a return address stack of the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		depth = RASDefaultEntries
	}
	return &RAS{stack: make([]int, depth)}
}

// Push records a return address at a call.
func (r *RAS) Push(addr int) {
	r.stack[r.pos] = addr
	r.pos = (r.pos + 1) % len(r.stack)
	if r.top < len(r.stack) {
		r.top++
	}
}

// Pop predicts the target of a return.
func (r *RAS) Pop() (addr int, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.pos = (r.pos - 1 + len(r.stack)) % len(r.stack)
	r.top--
	return r.stack[r.pos], true
}

// Snapshot captures the RAS state for checkpoint/recovery on flushes.
func (r *RAS) Snapshot() RASSnapshot {
	s := RASSnapshot{top: r.top, pos: r.pos, stack: make([]int, len(r.stack))}
	copy(s.stack, r.stack)
	return s
}

// SnapshotInto captures the RAS state into an existing snapshot, reusing its
// backing array when large enough (the allocation-free path for checkpoints
// recycled through a pool).
func (r *RAS) SnapshotInto(s *RASSnapshot) {
	s.top, s.pos = r.top, r.pos
	if cap(s.stack) < len(r.stack) {
		s.stack = make([]int, len(r.stack))
	}
	s.stack = s.stack[:len(r.stack)]
	copy(s.stack, r.stack)
}

// CopyFrom makes r an exact copy of o, reusing r's backing array when the
// depths match (they always do within one simulator).
func (r *RAS) CopyFrom(o *RAS) {
	if len(r.stack) != len(o.stack) {
		r.stack = make([]int, len(o.stack))
	}
	r.top, r.pos = o.top, o.pos
	copy(r.stack, o.stack)
}

// Restore rewinds the RAS to a snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	r.top = s.top
	r.pos = s.pos
	copy(r.stack, s.stack)
}

// RASSnapshot is an opaque RAS checkpoint.
type RASSnapshot struct {
	stack []int
	top   int
	pos   int
}

// Confidence is the enhanced JRS confidence estimator: a table of saturating
// miss-distance counters indexed by PC xor folded branch history. A branch
// whose counter is below the threshold is low-confidence. The "accuracy" of
// the estimator (PVN) is the fraction of low-confidence predictions that are
// actually mispredicted.
type Confidence struct {
	ctr       []uint8
	mask      int
	histBits  int
	threshold uint8
	max       uint8
	penalty   uint8

	confStats
	// undo journals counter changes since Journal, and stats0 holds the
	// statistics as they were then (see Rollback).
	undo   undo.Log[uint8]
	stats0 confStats
}

// confStats are the statistics for computing realised PVN.
type confStats struct {
	lowConf      uint64
	lowConfMisp  uint64
	highConf     uint64
	highConfMisp uint64
}

// Table 1 parameters: 2KB estimator, 12-bit history, threshold 14. The
// enhanced estimator uses 5-bit miss-distance counters that lose
// ConfDefaultPenalty on a misprediction instead of resetting to zero: a
// counter drifts below the threshold only for branches whose misprediction
// rate exceeds 1/(penalty+1) ≈ 20%, which keeps the estimator's
// PVN in the paper's 15-50% band instead of flagging every branch that
// merely misses occasionally.
const (
	ConfDefaultEntries   = 4096
	ConfDefaultHistBits  = 12
	ConfDefaultThreshold = 14
	ConfDefaultPenalty   = 4
	confCounterMax       = 31
)

// NewConfidence creates a JRS estimator with the given table size (rounded
// to a power of two), history bits used in the index, and low-confidence
// threshold.
func NewConfidence(entries, histBits int, threshold uint8) *Confidence {
	if entries <= 0 {
		entries = ConfDefaultEntries
	}
	entries = ceilPow2(entries)
	if histBits <= 0 || histBits > 32 {
		histBits = ConfDefaultHistBits
	}
	if threshold == 0 {
		threshold = ConfDefaultThreshold
	}
	return &Confidence{
		ctr:       make([]uint8, entries),
		mask:      entries - 1,
		histBits:  histBits,
		threshold: threshold,
		max:       confCounterMax,
		penalty:   ConfDefaultPenalty,
	}
}

// SetPenalty overrides the miss decrement (0 restores classic JRS
// reset-to-zero behaviour).
func (c *Confidence) SetPenalty(p uint8) { c.penalty = p }

// SetThreshold sets the low-confidence threshold (0 restores the Table 1
// default). Training does not read the threshold, so counters trained under
// one threshold serve any other.
func (c *Confidence) SetThreshold(t uint8) {
	if t == 0 {
		t = ConfDefaultThreshold
	}
	c.threshold = t
}

// Journal starts recording every change to c's counters and statistics,
// so that Rollback can undo them.
func (c *Confidence) Journal() {
	c.undo.Start(len(c.ctr))
	c.stats0 = c.confStats
}

// Rollback restores c's counters and statistics as they were at Journal
// and stops recording.
func (c *Confidence) Rollback() {
	c.undo.Rollback(c.ctr)
	c.confStats = c.stats0
}

func (c *Confidence) index(pc int, h History) int {
	hist := int(h) & ((1 << c.histBits) - 1)
	return (pc ^ hist) & c.mask
}

// LowConfidence reports whether the branch at pc is estimated likely to be
// mispredicted.
func (c *Confidence) LowConfidence(pc int, h History) bool {
	return c.ctr[c.index(pc, h)] < c.threshold
}

// Update trains the estimator with the resolved prediction outcome and
// accumulates PVN statistics.
func (c *Confidence) Update(pc int, h History, mispredicted bool) {
	i := c.index(pc, h)
	if c.undo.On() {
		c.undo.Save(c.ctr, i)
	}
	low := c.ctr[i] < c.threshold
	if low {
		c.lowConf++
		if mispredicted {
			c.lowConfMisp++
		}
	} else {
		c.highConf++
		if mispredicted {
			c.highConfMisp++
		}
	}
	switch {
	case mispredicted && c.penalty == 0:
		c.ctr[i] = 0
	case mispredicted && c.ctr[i] > c.penalty:
		c.ctr[i] -= c.penalty
	case mispredicted:
		c.ctr[i] = 0
	case c.ctr[i] < c.max:
		c.ctr[i]++
	}
}

// PVN returns the realised accuracy of the estimator: the fraction of
// low-confidence branches that were actually mispredicted. The paper quotes
// 15-50% for typical estimators and uses 40% in the cost model.
func (c *Confidence) PVN() float64 {
	if c.lowConf == 0 {
		return 0
	}
	return float64(c.lowConfMisp) / float64(c.lowConf)
}

// Coverage returns the fraction of all mispredictions flagged low-confidence.
func (c *Confidence) Coverage() float64 {
	m := c.lowConfMisp + c.highConfMisp
	if m == 0 {
		return 0
	}
	return float64(c.lowConfMisp) / float64(m)
}

// ResetStats clears the PVN statistics without clearing the tables.
func (c *Confidence) ResetStats() { c.confStats = confStats{} }
