package emu

import (
	"context"
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// This file is the predecoded fast path of the emulator. RunBlocks executes
// the per-PC records produced by predecode.Compile instead of re-interpreting
// isa.Inst words: it retires whole straight-line runs per step, with the PC
// bounds check and the branch-class test hoisted out of the inner loop, and
// reports retirement events through optional hooks. It is the one engine
// behind Run, the profiler, the pipeline's sampled fast-forward and sample's
// counting pass (both through RunBlocksCtx) and, through StepBatch's trace
// recorder, the pipeline's correct-path trace feed.
//
// It must be observationally identical to StepRef, the reference interpreter
// in emu.go; the differential suite in diff_test.go and FuzzEmuDiff enforce
// that trace-for-trace and fault-for-fault.

// BlockHooks receives the retirement events of a block-batched run
// (RunBlocks), in retirement order: retired straight-line extents, retired
// load addresses and retired control transfers. A nil field means the event
// is not reported, and a nil *BlockHooks reports nothing.
//
// There is deliberately no per-instruction hook: per-instruction callbacks
// are what makes step-based execution an order of magnitude slower than
// block-batched execution. Events fire only at loads (~1 in 4 instructions),
// at stores and at the control flow ending each run (~1 in 6), so the
// straight-line majority runs at full speed.
type BlockHooks struct {
	// Block is called with each retired straight-line extent [start, end]
	// (pc bounds, inclusive; the ending control-flow instruction is
	// included when it retired). It fires after the extent's loads and
	// stores.
	Block func(start, end int)
	// Load is called with each retired load's pc and effective word
	// address, after its bounds check passed.
	Load func(pc int, addr int64)
	// Store is called with each retired store's pc and effective word
	// address, after the store was applied.
	Store func(pc int, addr int64)
	// Branch is called for each retired conditional branch with its outcome
	// and its taken target.
	Branch func(pc int, taken bool, target int)
	// Call is called for each retired call with its target (the return
	// address is pc+1).
	Call func(pc, next int)
	// Ret is called for each retired return.
	Ret func(pc int)
	// Jump is called for each retired unconditional jump (jmp/jr).
	Jump func(pc, next int)
}

// RunBlocks executes up to max instructions (unlimited when max == 0), one
// straight-line run per step, and returns the number retired. It stops
// early only at a halt or a fault. Because every conditional branch ends a
// run, h observes exactly the per-branch sequence a StepRef loop would — the
// contract the profiler's predictor hook depends on.
//
// Faults match StepRef: the faulting instruction's side effects are applied,
// it is not counted, reports no event, and the PC is left pointing at it.
// A halt is counted; calls on a halted machine return ErrHalted.
func (m *Machine) RunBlocks(max uint64, h *BlockHooks) (uint64, error) {
	if m.halted {
		return 0, ErrHalted
	}
	// The hooks are copied once per call, so the loop tests and calls them
	// from the stack. The copy's zero value (h == nil) reports nothing.
	var hk BlockHooks
	if h != nil {
		hk = *h
	}
	load, store := hk.Load, hk.Store
	recs := m.pre.Recs
	regs := &m.Regs
	var done uint64
	for !m.halted && (max == 0 || done < max) {
		pc := m.PC
		if uint(pc) >= uint(len(recs)) {
			return done, fmt.Errorf("emu: pc %d out of range", pc)
		}
		start := pc
		end := int(recs[pc].NextCtl) // pc of the run-ending instruction
		limit := end
		// The ender costs one more instruction than the straight-line
		// portion, so it only runs when the budget strictly exceeds that
		// portion.
		runEnder := true
		if max > 0 && uint64(end-pc) >= max-done {
			limit = pc + int(max-done)
			runEnder = false
		}
		// A run that reaches the end of the code segment has no ender: its
		// last instruction, a straight-line one, executes and then faults on
		// the fall-through, exactly like the reference interpreter, so it is
		// never retired and reports no event. Without hooks it runs with the
		// rest of the run. With hooks the run stops before it and a hook-less
		// call runs it.
		fellOff := limit == len(recs)
		if fellOff && h != nil {
			limit--
		}

		for ; pc < limit; pc++ {
			r := &recs[pc]
			switch r.Kind {
			case predecode.KNop:
			case predecode.KAddRR:
				regs[r.Rd] = regs[r.R1] + regs[r.R2]
			case predecode.KAddRI:
				regs[r.Rd] = regs[r.R1] + r.Imm
			case predecode.KSubRR:
				regs[r.Rd] = regs[r.R1] - regs[r.R2]
			case predecode.KSubRI:
				regs[r.Rd] = regs[r.R1] - r.Imm
			case predecode.KMulRR:
				regs[r.Rd] = regs[r.R1] * regs[r.R2]
			case predecode.KMulRI:
				regs[r.Rd] = regs[r.R1] * r.Imm
			case predecode.KDivRR:
				if d := regs[r.R2]; d == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] / d
				}
			case predecode.KDivRI:
				if r.Imm == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] / r.Imm
				}
			case predecode.KRemRR:
				if d := regs[r.R2]; d == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] % d
				}
			case predecode.KRemRI:
				if r.Imm == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] % r.Imm
				}
			case predecode.KAndRR:
				regs[r.Rd] = regs[r.R1] & regs[r.R2]
			case predecode.KAndRI:
				regs[r.Rd] = regs[r.R1] & r.Imm
			case predecode.KOrRR:
				regs[r.Rd] = regs[r.R1] | regs[r.R2]
			case predecode.KOrRI:
				regs[r.Rd] = regs[r.R1] | r.Imm
			case predecode.KXorRR:
				regs[r.Rd] = regs[r.R1] ^ regs[r.R2]
			case predecode.KXorRI:
				regs[r.Rd] = regs[r.R1] ^ r.Imm
			case predecode.KShlRR:
				regs[r.Rd] = regs[r.R1] << (uint64(regs[r.R2]) & 63)
			case predecode.KShlRI:
				regs[r.Rd] = regs[r.R1] << (uint64(r.Imm) & 63)
			case predecode.KShrRR:
				regs[r.Rd] = regs[r.R1] >> (uint64(regs[r.R2]) & 63)
			case predecode.KShrRI:
				regs[r.Rd] = regs[r.R1] >> (uint64(r.Imm) & 63)
			case predecode.KCmpEQRR:
				regs[r.Rd] = b2i(regs[r.R1] == regs[r.R2])
			case predecode.KCmpEQRI:
				regs[r.Rd] = b2i(regs[r.R1] == r.Imm)
			case predecode.KCmpNERR:
				regs[r.Rd] = b2i(regs[r.R1] != regs[r.R2])
			case predecode.KCmpNERI:
				regs[r.Rd] = b2i(regs[r.R1] != r.Imm)
			case predecode.KCmpLTRR:
				regs[r.Rd] = b2i(regs[r.R1] < regs[r.R2])
			case predecode.KCmpLTRI:
				regs[r.Rd] = b2i(regs[r.R1] < r.Imm)
			case predecode.KCmpLERR:
				regs[r.Rd] = b2i(regs[r.R1] <= regs[r.R2])
			case predecode.KCmpLERI:
				regs[r.Rd] = b2i(regs[r.R1] <= r.Imm)
			case predecode.KCmpGTRR:
				regs[r.Rd] = b2i(regs[r.R1] > regs[r.R2])
			case predecode.KCmpGTRI:
				regs[r.Rd] = b2i(regs[r.R1] > r.Imm)
			case predecode.KCmpGERR:
				regs[r.Rd] = b2i(regs[r.R1] >= regs[r.R2])
			case predecode.KCmpGERI:
				regs[r.Rd] = b2i(regs[r.R1] >= r.Imm)
			case predecode.KMovI:
				regs[r.Rd] = r.Imm
			case predecode.KMov:
				regs[r.Rd] = regs[r.R1]
			case predecode.KLd:
				a := regs[r.R1] + r.Imm
				v, ok := m.load(a)
				if !ok {
					return m.retireRun(h, done, start, pc), fmt.Errorf("emu: pc %d: load address %d out of range", pc, a)
				}
				regs[r.Rd] = v
				if load != nil {
					load(pc, a)
				}
			case predecode.KLdNoWB:
				a := regs[r.R1] + r.Imm
				if uint64(a) >= uint64(m.size) {
					return m.retireRun(h, done, start, pc), fmt.Errorf("emu: pc %d: load address %d out of range", pc, a)
				}
				if load != nil {
					load(pc, a)
				}
			case predecode.KSt:
				a := regs[r.R1] + r.Imm
				if v := regs[r.R2]; !m.store(a, v) && !m.grow(a, v) {
					return m.retireRun(h, done, start, pc), fmt.Errorf("emu: pc %d: store address %d out of range", pc, a)
				}
				if store != nil {
					store(pc, a)
				}
			case predecode.KIn:
				if m.inPos < len(m.input) {
					regs[r.Rd] = m.input[m.inPos]
					m.inPos++
				} else {
					regs[r.Rd] = 0
				}
			case predecode.KInNoWB:
				if m.inPos < len(m.input) {
					m.inPos++
				}
			case predecode.KInAvail:
				regs[r.Rd] = int64(len(m.input) - m.inPos)
			case predecode.KOut:
				m.Output = append(m.Output, regs[r.R1])
			}
		}

		if fellOff {
			if pc < len(recs) {
				done = m.retireRun(h, done, start, pc)
				_, err := m.RunBlocks(1, nil)
				return done, err
			}
			return m.retireRun(h, done, start, pc-1), badTransfer(pc-1, pc)
		}
		if !runEnder {
			// Budget exhausted mid-run.
			return m.retireRun(h, done, start, pc), nil
		}

		// Control-flow (or undecodable) instruction ending the run. Each
		// case checks its target before reporting anything: a transfer out
		// of the code segment faults, and a faulting instruction is neither
		// retired nor reported. Each case also makes its own hook calls;
		// dispatching them from a second switch after this one made warming
		// runs about 5% slower.
		r := &recs[pc]
		next := pc + 1
		switch r.Kind {
		case predecode.KBeqz, predecode.KBnez:
			taken := (regs[r.R1] == 0) == (r.Kind == predecode.KBeqz)
			if taken {
				next = int(r.Target)
			}
			if uint(next) >= uint(len(recs)) {
				return m.retireRun(h, done, start, pc), badTransfer(pc, next)
			}
			if hk.Block != nil {
				hk.Block(start, pc)
			}
			if hk.Branch != nil {
				hk.Branch(pc, taken, int(r.Target))
			}
		case predecode.KJmp:
			next = int(r.Target)
			if uint(next) >= uint(len(recs)) {
				return m.retireRun(h, done, start, pc), badTransfer(pc, next)
			}
			if hk.Block != nil {
				hk.Block(start, pc)
			}
			if hk.Jump != nil {
				hk.Jump(pc, next)
			}
		case predecode.KCall:
			regs[isa.RegLR] = int64(pc + 1)
			next = int(r.Target)
			if uint(next) >= uint(len(recs)) {
				return m.retireRun(h, done, start, pc), badTransfer(pc, next)
			}
			if hk.Block != nil {
				hk.Block(start, pc)
			}
			if hk.Call != nil {
				hk.Call(pc, next)
			}
		case predecode.KCallR:
			// The link register is written before the target register is
			// read, so callr through the link register jumps to pc+1.
			regs[isa.RegLR] = int64(pc + 1)
			next = int(regs[r.R1])
			if uint(next) >= uint(len(recs)) {
				return m.retireRun(h, done, start, pc), badTransfer(pc, next)
			}
			if hk.Block != nil {
				hk.Block(start, pc)
			}
			if hk.Call != nil {
				hk.Call(pc, next)
			}
		case predecode.KRet:
			next = int(regs[r.R1]) // R1 == RegLR
			if uint(next) >= uint(len(recs)) {
				return m.retireRun(h, done, start, pc), badTransfer(pc, next)
			}
			if hk.Block != nil {
				hk.Block(start, pc)
			}
			if hk.Ret != nil {
				hk.Ret(pc)
			}
		case predecode.KJr:
			next = int(regs[r.R1])
			if uint(next) >= uint(len(recs)) {
				return m.retireRun(h, done, start, pc), badTransfer(pc, next)
			}
			if hk.Block != nil {
				hk.Block(start, pc)
			}
			if hk.Jump != nil {
				hk.Jump(pc, next)
			}
		case predecode.KHalt:
			m.halted = true
			next = pc
			if hk.Block != nil {
				hk.Block(start, pc)
			}
		default: // KBad
			return m.retireRun(h, done, start, pc),
				fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, m.prog.Code[pc].Op)
		}
		m.PC = next
		n := uint64(pc - start + 1)
		m.Retired += n
		done += n
	}
	return done, nil
}

// ctxChunk is how many instructions RunBlocksCtx retires between checks of
// its context: a few milliseconds of functional execution, so a cancelled
// fast-forward or counting pass stops promptly while the poll costs nothing
// next to the run it bounds.
const ctxChunk = 1 << 22

// RunBlocksCtx is RunBlocks in chunks of ctxChunk instructions, checking ctx
// (nil: never cancelled) before each, so even a long or unbounded run can be
// cancelled. It runs until max instructions have retired (no limit when
// max == 0) or the machine halts, and returns the number retired with ctx's
// error or a fault, if either stopped it first.
func (m *Machine) RunBlocksCtx(ctx context.Context, max uint64, h *BlockHooks) (uint64, error) {
	var done uint64
	for (max == 0 || done < max) && !m.halted {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return done, err
			}
		}
		lim := uint64(ctxChunk)
		if max > 0 {
			lim = min(lim, max-done)
		}
		k, err := m.RunBlocks(lim, h)
		done += k
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// badTransfer is the fault of a control transfer out of the code segment.
func badTransfer(pc, next int) error {
	return fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next)
}

// retireRun finalises a run that stopped before pc — at a fault, at the
// budget or at the end of the code segment: the instructions before pc are
// retired and their extent reported, and the PC is parked on pc. It returns
// the call's new retired total.
func (m *Machine) retireRun(h *BlockHooks, done uint64, start, pc int) uint64 {
	m.PC = pc
	n := uint64(pc - start)
	m.Retired += n
	if h != nil && h.Block != nil && pc > start {
		h.Block(start, pc-1)
	}
	return done + n
}

// StepBatch executes up to len(dst) instructions on the block executor,
// filling dst with their trace entries, and returns the number filled.
// Entries before a fault are valid and the fault is returned alongside them
// (alone when it is the batch's first instruction). After the machine
// halts, the halt's entry ends a batch and the next call returns
// (0, ErrHalted).
func (m *Machine) StepBatch(dst []Trace) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if m.rec == nil {
		m.rec = newTraceRecorder(m)
	}
	r := m.rec
	clear(dst)
	r.dst, r.n = dst, 0
	k, err := m.RunBlocks(uint64(len(dst)), &r.hooks)
	r.dst = nil
	if k > 0 {
		dst[k-1].NextPC = m.PC
	}
	return int(k), err
}

// traceRecorder is StepBatch's hook set: it writes the block executor's
// retirement events into cleared trace entries. A reported extent fills
// its entries' PC and fall-through NextPC; the entry ending the previous
// extent learns its NextPC from this extent's start (the last entry of a
// batch from the PC the call leaves). Loads and stores fire before their
// extent is reported, while the machine's PC still holds the run's start,
// so their entry is found from their pc; a branch fires after its extent
// and marks the entry just written.
type traceRecorder struct {
	dst   []Trace
	n     int // entries filled by the extents reported so far
	hooks BlockHooks
}

func newTraceRecorder(m *Machine) *traceRecorder {
	r := &traceRecorder{}
	mem := func(pc int, addr int64) { r.dst[r.n+pc-m.PC].Addr = addr }
	r.hooks = BlockHooks{
		Block: func(start, end int) {
			if r.n > 0 {
				r.dst[r.n-1].NextPC = start
			}
			d := r.dst[r.n : r.n+end-start+1]
			for i := range d {
				d[i].PC = start + i
				d[i].NextPC = start + i + 1
			}
			r.n += len(d)
		},
		Load:  mem,
		Store: mem,
		Branch: func(_ int, taken bool, _ int) {
			r.dst[r.n-1].Taken = taken
		},
	}
	return r
}
