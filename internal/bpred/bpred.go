// Package bpred implements the front-end prediction structures of the
// baseline processor and its DMP extension (Table 1 of the paper):
//
//   - a perceptron conditional-branch predictor (Jiménez & Lin, HPCA-7),
//     16KB with 64-bit global history and 256 perceptrons;
//   - a gshare predictor, used in tests and as a smaller alternative;
//   - a 4K-entry branch target buffer;
//   - a 64-entry return address stack;
//   - an enhanced JRS confidence estimator (Jacobsen-Rotenberg-Smith,
//     refined per Grunwald et al.), 2KB, 12-bit history, threshold 14.
//
// All structures are deterministic and allocation-free in steady state. The
// caller (pipeline or profiler) owns the global history register so that it
// can maintain separate speculative and retired copies.
package bpred

import (
	"math/bits"

	"dmp/internal/undo"
)

// History is a global branch history register: bit 0 is the most recent
// branch outcome (1 = taken).
type History uint64

// Push shifts outcome t into the history.
func (h History) Push(t bool) History {
	h <<= 1
	if t {
		h |= 1
	}
	return h
}

// Predictor is a conditional branch direction predictor.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc under
	// global history h.
	Predict(pc int, h History) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc int, h History, taken bool)
}

// Perceptron is the Jiménez-Lin perceptron predictor.
//
// Each row's history weights are stored word-parallel (SWAR, "SIMD within a
// register"): weight w_{i+1}, the weight of history bit i, lives in byte i%8
// of lanes[i/8] as the sign-flipped byte w+128. Lanes past histLen hold
// weight 0 and are never trained, so one code path serves every history
// length in [1, 64]. Weights saturate at ±127, so a stored byte is always in
// [1, 255].
type Perceptron struct {
	rows   []perceptronRow
	hmask  History // the low histLen bits
	nwords int     // words of lanes that hold history weights
	theta  int32
	undo   undo.Log[perceptronRow]
}

type perceptronRow struct {
	lanes [8]uint64 // sign-flipped history weights, 8 per word
	sum   int32     // sum of the history weights, kept current by train
	bias  int8      // w0
}

// PerceptronDefaultTables and PerceptronDefaultHist match Table 1 (16KB:
// 256 entries × 65 8-bit weights).
const (
	PerceptronDefaultTables = 256
	PerceptronDefaultHist   = 64
)

// NewPerceptron creates a perceptron predictor with the given table count
// (rounded up to a power of two) and history length (max 64).
func NewPerceptron(tables, histLen int) *Perceptron {
	if tables <= 0 {
		tables = PerceptronDefaultTables
	}
	tables = ceilPow2(tables)
	if histLen <= 0 || histLen > 64 {
		histLen = PerceptronDefaultHist
	}
	p := &Perceptron{
		rows:   make([]perceptronRow, tables),
		hmask:  ^History(0) >> (64 - histLen),
		nwords: (histLen + 7) / 8,
		// Training threshold from Jiménez & Lin: 1.93*h + 14.
		theta: int32(1.93*float64(histLen) + 14),
	}
	for i := range p.rows {
		for k := range p.rows[i].lanes {
			p.rows[i].lanes[k] = 0x80 * laneOnes // every weight 0
		}
	}
	return p
}

// Journal starts recording every change to p's weights, so that Rollback
// can undo them.
func (p *Perceptron) Journal() { p.undo.Start(len(p.rows)) }

// Rollback restores p's weights as they were at Journal and stops
// recording.
func (p *Perceptron) Rollback() { p.undo.Rollback(p.rows) }

func (p *Perceptron) index(pc int) int { return pc & (len(p.rows) - 1) }

const (
	laneOnes  = 0x0101010101010101 // 1 in every byte
	laneLow7  = 0x7F7F7F7F7F7F7F7F // the low 7 bits of every byte
	laneEven8 = 0x00FF00FF00FF00FF // the even bytes
)

// byteMask[b] has byte i set to 0xFF exactly when bit i of b is set: it
// expands 8 history bits into a mask over one word of lanes.
var byteMask = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				t[b] |= 0xFF << (8 * i)
			}
		}
	}
	return t
}()

// zeroLanes returns 1 in every byte of x that is zero and 0 in every other
// byte. The test is exact per byte: no carry crosses a lane.
func zeroLanes(x uint64) uint64 {
	return ^(x&laneLow7 + laneLow7 | x | laneLow7) >> 7
}

// output computes the perceptron sum y = w0 + sum_i (h_i ? +w_i : -w_i) as
// w0 + 2*sum_{h_i=1} w_i - sum_i w_i. The selected sign-flipped bytes are
// added into 16-bit lanes (at most 8 words × 2 × 255 per lane, so none
// overflows), one multiply folds the four lanes, and 128 per selected weight
// removes the sign flip. The result is exactly the scalar sum.
func (p *Perceptron) output(pc int, h History) int32 {
	r := &p.rows[p.index(pc)]
	hm := uint64(h & p.hmask)
	var acc uint64 // the selected bytes, summed in four 16-bit lanes
	hh := hm
	for _, w := range r.lanes[:p.nwords] {
		m := w & byteMask[uint8(hh)]
		acc += m&laneEven8 + m>>8&laneEven8
		hh >>= 8
	}
	sel := int32(acc*0x0001000100010001>>48) - 128*int32(bits.OnesCount64(hm))
	return int32(r.bias) + 2*sel - r.sum
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc int, h History) bool { return p.output(pc, h) >= 0 }

// Update implements Predictor: train on misprediction or weak output.
func (p *Perceptron) Update(pc int, h History, taken bool) {
	y := p.output(pc, h)
	pred := y >= 0
	if pred == taken && abs32(y) > p.theta {
		return
	}
	p.train(pc, h, taken)
}

// PredictAndTrain predicts the branch and immediately trains on its resolved
// outcome, computing the perceptron sum once. It is exactly equivalent to
// Predict followed by Update with the same arguments; the profiler uses it
// because it resolves each branch in the same step it predicts it.
func (p *Perceptron) PredictAndTrain(pc int, h History, taken bool) bool {
	y := p.output(pc, h)
	pred := y >= 0
	if pred == taken && abs32(y) > p.theta {
		return pred
	}
	p.train(pc, h, taken)
	return pred
}

// train applies one saturating step toward the outcome: +1 to every weight
// whose history bit agrees with the outcome, -1 to the rest, clamped to
// ±127. Lanes already at the bound (byte 255 for a step up, byte 1 for a
// step down) are found with the zero-byte test and left alone, so adding and
// subtracting one per lane never carries or borrows across lanes.
func (p *Perceptron) train(pc int, h History, taken bool) {
	i := p.index(pc)
	if p.undo.On() {
		p.undo.Save(p.rows, i)
	}
	r := &p.rows[i]
	r.bias = sat8(r.bias, taken)
	agree := uint64(h)
	if !taken {
		agree = ^agree
	}
	agree &= uint64(p.hmask)
	disagree := ^agree & uint64(p.hmask)
	delta := 0
	for k, w := range r.lanes[:p.nwords] {
		up := byteMask[uint8(agree)] & laneOnes &^ zeroLanes(^w)
		down := byteMask[uint8(disagree)] & laneOnes &^ zeroLanes(w^laneOnes)
		r.lanes[k] = w + up - down
		delta += bits.OnesCount64(up) - bits.OnesCount64(down)
		agree >>= 8
		disagree >>= 8
	}
	r.sum += int32(delta)
}

func sat8(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -127 {
		return w - 1
	}
	return w
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// Gshare is a classic 2-bit-counter gshare predictor.
type Gshare struct {
	ctr  []uint8
	mask History
}

// NewGshare creates a gshare predictor with 2^bits counters.
func NewGshare(bits int) *Gshare {
	if bits <= 0 || bits > 24 {
		bits = 14
	}
	return &Gshare{ctr: make([]uint8, 1<<bits), mask: History(1<<bits) - 1}
}

func (g *Gshare) index(pc int, h History) int {
	return int((History(pc) ^ h) & g.mask)
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc int, h History) bool { return g.ctr[g.index(pc, h)] >= 2 }

// Update implements Predictor.
func (g *Gshare) Update(pc int, h History, taken bool) {
	i := g.index(pc, h)
	if taken {
		if g.ctr[i] < 3 {
			g.ctr[i]++
		}
	} else if g.ctr[i] > 0 {
		g.ctr[i]--
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
