// Package profile collects the program profiles the selection compiler
// consumes: per-instruction execution counts, per-branch edge counts
// (taken/not-taken), and per-branch misprediction counts obtained by running
// the real branch predictor during the profiling run — the profiling setup
// of Section 6 of the paper.
package profile

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"dmp/internal/bpred"
	"dmp/internal/cfg"
	"dmp/internal/emu"
	"dmp/internal/isa"
)

// Profile is the result of one profiling run.
type Profile struct {
	// ExecCount[pc] is the number of times the instruction at pc retired.
	ExecCount []uint64
	// Taken and NotTaken count conditional-branch outcomes, indexed by
	// branch PC (dense, parallel to the code segment; non-branch PCs stay
	// zero).
	Taken    []uint64
	NotTaken []uint64
	// Mispred counts mispredictions per branch PC under the profiling
	// predictor.
	Mispred []uint64
	// TotalRetired is the number of retired instructions.
	TotalRetired uint64
}

// Options configures profiling.
type Options struct {
	// MaxInsts bounds the profiling run (0 = unbounded).
	MaxInsts uint64
	// Predictor supplies the direction predictor used to measure per-branch
	// misprediction rates. Nil means a default perceptron (Table 1 config).
	Predictor bpred.Predictor
}

// Collect profiles the program on the given input tape.
func Collect(p *isa.Program, input []int64, opt Options) (*Profile, error) {
	return collectWithHook(context.Background(), p, input, opt, nil)
}

// CollectCtx is Collect under a cancellation context: the block-batched
// profiling loop rechecks ctx periodically, so cancelling it aborts even an
// unbounded (MaxInsts = 0) run on a non-terminating program promptly.
func CollectCtx(ctx context.Context, p *isa.Program, input []int64, opt Options) (*Profile, error) {
	return collectWithHook(ctx, p, input, opt, nil)
}

// predictTrainer is implemented by predictors that can fold the
// predict-then-train sequence of a profiled branch into one pass
// (bpred.Perceptron); the profiler resolves every branch in the same step it
// predicts it, so the fusion is exactly equivalent.
type predictTrainer interface {
	PredictAndTrain(pc int, h bpred.History, taken bool) bool
}

// profileChunk is how many instructions the profiling loop retires between
// ctx recheck points: small enough that cancellation lands within a
// fraction of a millisecond, large enough that the poll's lock acquisition
// never shows up next to the instructions it bounds.
const profileChunk = 1 << 16

// collectWithHook runs the profiler, invoking hook (if non-nil) for every
// retired conditional branch with its misprediction outcome. The 2D profiler
// builds its time-sliced view through this hook.
//
// Execution is block-batched: emu.RunBlocks reports each retired
// straight-line extent and each retired conditional branch. Because every
// conditional branch ends an extent, the per-branch predictor/hook sequence
// is identical to a step-by-step loop.
func collectWithHook(ctx context.Context, p *isa.Program, input []int64, opt Options, hook func(pc int, misp bool)) (*Profile, error) {
	pred := opt.Predictor
	if pred == nil {
		pred = bpred.NewPerceptron(bpred.PerceptronDefaultTables, bpred.PerceptronDefaultHist)
	}
	pt, _ := pred.(predictTrainer)
	m := emu.New(p, input, 0)
	n := len(p.Code)
	prof := &Profile{
		ExecCount: make([]uint64, n),
		Taken:     make([]uint64, n),
		NotTaken:  make([]uint64, n),
		Mispred:   make([]uint64, n),
	}
	var hist bpred.History
	execCount := prof.ExecCount
	hooks := &emu.BlockHooks{
		Block: func(start, end int) {
			for pc := start; pc <= end; pc++ {
				execCount[pc]++
			}
		},
		Branch: func(pc int, taken bool, _ int) {
			if taken {
				prof.Taken[pc]++
			} else {
				prof.NotTaken[pc]++
			}
			var misp bool
			if pt != nil {
				misp = pt.PredictAndTrain(pc, hist, taken) != taken
			} else {
				misp = pred.Predict(pc, hist) != taken
			}
			if misp {
				prof.Mispred[pc]++
			}
			if hook != nil {
				hook(pc, misp)
			}
			if pt == nil {
				pred.Update(pc, hist, taken)
			}
			hist = hist.Push(taken)
		},
	}
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		budget := uint64(profileChunk)
		if opt.MaxInsts > 0 {
			if prof.TotalRetired >= opt.MaxInsts {
				break
			}
			budget = min(budget, opt.MaxInsts-prof.TotalRetired)
		}
		k, err := m.RunBlocks(budget, hooks)
		prof.TotalRetired += k
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return prof, nil
}

// ctrAt reads a dense counter slice, treating out-of-range PCs as zero (the
// behaviour the old map representation gave for free).
func ctrAt(s []uint64, pc int) uint64 {
	if pc < 0 || pc >= len(s) {
		return 0
	}
	return s[pc]
}

// BranchExec returns the dynamic execution count of the branch at pc.
func (p *Profile) BranchExec(pc int) uint64 { return ctrAt(p.Taken, pc) + ctrAt(p.NotTaken, pc) }

// TakenProb returns the profiled probability that the branch at pc is taken.
// Unexecuted branches report 0.5 (no information).
func (p *Profile) TakenProb(pc int) float64 {
	n := p.BranchExec(pc)
	if n == 0 {
		return 0.5
	}
	return float64(ctrAt(p.Taken, pc)) / float64(n)
}

// MispRate returns the profiled misprediction rate of the branch at pc.
func (p *Profile) MispRate(pc int) float64 {
	n := p.BranchExec(pc)
	if n == 0 {
		return 0
	}
	return float64(ctrAt(p.Mispred, pc)) / float64(n)
}

// MPKI returns overall mispredictions per kilo-instruction.
func (p *Profile) MPKI() float64 {
	if p.TotalRetired == 0 {
		return 0
	}
	var m uint64
	for _, c := range p.Mispred {
		m += c
	}
	return float64(m) * 1000 / float64(p.TotalRetired)
}

// EdgeProb is a cfg.EdgeProb backed by this profile: the probability of
// control flowing from block `from` to node `to`, given `from` executes.
func (p *Profile) EdgeProb(g *cfg.Graph, from, to int) float64 {
	b := g.Blocks[from]
	last := g.Code[b.End-1]
	succs := b.Succs
	if !last.IsCondBranch() || len(succs) < 2 || succs[0] == succs[1] {
		// Single successor, or a branch whose target is its fallthrough:
		// probability 1 to it, 0 elsewhere.
		if len(succs) > 0 && succs[0] == to {
			return 1
		}
		return 0
	}
	brPC := b.End - 1
	n := p.BranchExec(brPC)
	if n == 0 {
		// Never executed during profiling: split evenly.
		return 0.5
	}
	// Successor order is [fallthrough, taken].
	if to == succs[1] {
		return float64(ctrAt(p.Taken, brPC)) / float64(n)
	}
	if to == succs[0] {
		return float64(ctrAt(p.NotTaken, brPC)) / float64(n)
	}
	return 0
}

// BlockCount returns the profiled execution count of a block.
func (p *Profile) BlockCount(g *cfg.Graph, id int) uint64 {
	if id < 0 || id >= len(g.Blocks) {
		return 0
	}
	return p.ExecCount[g.Blocks[id].Start]
}

// LoopStats summarises the profiled behaviour of one natural loop.
type LoopStats struct {
	// Entries is the number of times the loop was entered from outside.
	Entries uint64
	// HeaderExecs is the number of header executions (total iterations).
	HeaderExecs uint64
	// AvgIters is HeaderExecs/Entries.
	AvgIters float64
	// AvgBodyInsts is the expected dynamic instruction count of one
	// iteration, from per-block execution counts.
	AvgBodyInsts float64
	// AvgTripInsts is AvgBodyInsts * AvgIters: the paper's "average number
	// of executed instructions from the loop entrance to the loop exit".
	AvgTripInsts float64
}

// LoopProfile computes LoopStats for a natural loop.
func (p *Profile) LoopProfile(g *cfg.Graph, l *cfg.Loop) LoopStats {
	var s LoopStats
	header := g.Blocks[l.Header]
	s.HeaderExecs = p.ExecCount[header.Start]
	// Back-edge executions: latch -> header transitions.
	var backEdges uint64
	for _, latchID := range l.Latches {
		latch := g.Blocks[latchID]
		last := g.Code[latch.End-1]
		switch {
		case last.IsCondBranch():
			brPC := latch.End - 1
			// Which direction reaches the header?
			if last.Target == header.Start {
				backEdges += ctrAt(p.Taken, brPC)
			} else {
				backEdges += ctrAt(p.NotTaken, brPC)
			}
		default:
			// Unconditional or fallthrough latch: every execution loops.
			backEdges += p.ExecCount[latch.Start]
		}
	}
	if s.HeaderExecs > backEdges {
		s.Entries = s.HeaderExecs - backEdges
	}
	if s.Entries > 0 {
		s.AvgIters = float64(s.HeaderExecs) / float64(s.Entries)
	}
	if s.HeaderExecs > 0 {
		var dyn uint64
		for _, id := range l.Body {
			b := g.Blocks[id]
			dyn += p.ExecCount[b.Start] * uint64(b.NumInsts())
		}
		s.AvgBodyInsts = float64(dyn) / float64(s.HeaderExecs)
	}
	s.AvgTripInsts = s.AvgBodyInsts * s.AvgIters
	return s
}

// Serialisation (consumed by cmd/dmpprof and cmd/dmpcc).

const profMagic = 0x50524f46 // "PROF"

// WriteTo serialises the profile.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], profMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(p.ExecCount)))
	binary.LittleEndian.PutUint64(hdr[8:], p.TotalRetired)
	buf.Write(hdr[:])
	for _, c := range p.ExecCount {
		putUv(&buf, c)
	}
	// Dense counter slices serialise in the legacy sparse-map format: an
	// entry count followed by (pc, value) pairs in ascending pc order —
	// byte-identical to what the map encoder produced, since maps only ever
	// held non-zero entries and were written key-sorted.
	writeCounters := func(s []uint64) {
		var nz uint64
		for _, v := range s {
			if v != 0 {
				nz++
			}
		}
		putUv(&buf, nz)
		for pc, v := range s {
			if v != 0 {
				putUv(&buf, uint64(pc))
				putUv(&buf, v)
			}
		}
	}
	writeCounters(p.Taken)
	writeCounters(p.NotTaken)
	writeCounters(p.Mispred)
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Read parses a serialised profile.
func Read(r io.Reader) (*Profile, error) {
	br := bufio(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("profile: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != profMagic {
		return nil, fmt.Errorf("profile: bad magic")
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > 1<<26 {
		return nil, fmt.Errorf("profile: implausible size %d", n)
	}
	p := &Profile{
		ExecCount:    make([]uint64, n),
		TotalRetired: binary.LittleEndian.Uint64(hdr[8:]),
		Taken:        make([]uint64, n),
		NotTaken:     make([]uint64, n),
		Mispred:      make([]uint64, n),
	}
	for i := range p.ExecCount {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		p.ExecCount[i] = v
	}
	readCounters := func(s []uint64) error {
		cnt, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if cnt > uint64(n) {
			return fmt.Errorf("profile: implausible map size %d", cnt)
		}
		for i := uint64(0); i < cnt; i++ {
			k, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if k >= uint64(n) {
				return fmt.Errorf("profile: branch pc %d out of range", k)
			}
			s[k] = v
		}
		return nil
	}
	for _, s := range [][]uint64{p.Taken, p.NotTaken, p.Mispred} {
		if err := readCounters(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func putUv(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

type byteRdr struct {
	r io.Reader
	b [1]byte
}

func bufio(r io.Reader) *byteRdr { return &byteRdr{r: r} }

func (b *byteRdr) Read(p []byte) (int, error) { return io.ReadFull(b.r, p) }

func (b *byteRdr) ReadByte() (byte, error) {
	if rb, ok := b.r.(io.ByteReader); ok {
		return rb.ReadByte()
	}
	_, err := io.ReadFull(b.r, b.b[:])
	return b.b[0], err
}
