package emu

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// This file is the predecoded fast path of the emulator. It executes the
// per-PC records produced by predecode.Compile instead of re-interpreting
// isa.Inst words, in two shapes:
//
//   - exec1 runs a single record and is the engine behind Step and
//     StepBatch (the pipeline's batched trace feed);
//   - RunBlocks retires whole straight-line runs per step, with the PC
//     bounds check and the branch-class test hoisted out of the inner loop,
//     and reports retirement events through optional hooks — the engine
//     behind Run, the profiler and the pipeline's sampled fast-forward.
//
// Both must be observationally identical to StepRef, the reference
// interpreter in emu.go; the differential suite in diff_test.go and
// FuzzEmuDiff enforce that trace-for-trace and fault-for-fault.

// BlockHooks receives the retirement events of a block-batched run
// (RunBlocks), in retirement order: retired straight-line extents, retired
// load addresses and retired control transfers. A nil field means the event
// is not reported, and a nil *BlockHooks reports nothing.
//
// There is deliberately no per-instruction hook: per-instruction callbacks
// are what makes step-based execution an order of magnitude slower than
// block-batched execution. Events fire only at loads (~1 in 4 instructions)
// and at the control flow ending each run (~1 in 6), so the straight-line
// majority runs at full speed.
type BlockHooks struct {
	// Block is called with each retired straight-line extent [start, end]
	// (pc bounds, inclusive; the ending control-flow instruction is
	// included when it retired). It fires after the extent's loads.
	Block func(start, end int)
	// Load is called with each retired load's effective word address,
	// after its bounds check passed.
	Load func(addr int64)
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
// run, h observes exactly the per-branch sequence a Step loop would — the
// contract the profiler's predictor hook depends on.
//
// Faults match Step: the faulting instruction's side effects are applied,
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
	load := hk.Load
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
		// last instruction executes and then faults on the fall-through,
		// exactly like the reference interpreter.
		fellOff := false
		if limit == len(recs) {
			limit--
			fellOff = true
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
					load(a)
				}
			case predecode.KLdNoWB:
				a := regs[r.R1] + r.Imm
				if uint64(a) >= uint64(m.size) {
					return m.retireRun(h, done, start, pc), fmt.Errorf("emu: pc %d: load address %d out of range", pc, a)
				}
				if load != nil {
					load(a)
				}
			case predecode.KSt:
				a := regs[r.R1] + r.Imm
				if v := regs[r.R2]; !m.store(a, v) && !m.grow(a, v) {
					return m.retireRun(h, done, start, pc), fmt.Errorf("emu: pc %d: store address %d out of range", pc, a)
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
			// Execute the final instruction (its effects are architecturally
			// visible), then report whichever fault it raises: its own, or
			// the fall-through off the end of the code segment.
			done = m.retireRun(h, done, start, pc)
			_, _, _, err := m.exec1(pc)
			return done, err
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

// StepBatch executes up to len(dst) instructions (at most max when max > 0),
// filling dst with their trace entries, and returns the number filled.
// Entries before a fault are valid; the fault is returned on the call that
// would produce no entries otherwise or alongside the partial batch. After
// the machine halts, the halt's entry ends a batch and the next call returns
// (0, ErrHalted).
func (m *Machine) StepBatch(dst []Trace, max uint64) (int, error) {
	lim := len(dst)
	if max > 0 && uint64(lim) > max {
		lim = int(max)
	}
	code := m.prog.Code
	n := 0
	for n < lim {
		if m.halted {
			if n == 0 {
				return 0, ErrHalted
			}
			return n, nil
		}
		pc := m.PC
		if uint(pc) >= uint(len(code)) {
			return n, fmt.Errorf("emu: pc %d out of range", pc)
		}
		next, taken, addr, err := m.exec1(pc)
		if err != nil {
			return n, err
		}
		dst[n] = Trace{PC: pc, Inst: code[pc], NextPC: next, Taken: taken, Addr: addr}
		m.PC = next
		m.Retired++
		n++
	}
	return n, nil
}

// exec1 executes the single predecoded instruction at pc (which must be in
// range) and returns its control outcome. Like the reference interpreter, a
// faulting instruction's earlier side effects remain applied; the caller
// must not advance the PC or count the instruction as retired on error.
func (m *Machine) exec1(pc int) (next int, taken bool, addr int64, err error) {
	r := &m.pre.Recs[pc]
	regs := &m.Regs
	next = pc + 1
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
		addr = regs[r.R1] + r.Imm
		v, ok := m.load(addr)
		if !ok {
			return 0, false, 0, fmt.Errorf("emu: pc %d: load address %d out of range", pc, addr)
		}
		regs[r.Rd] = v
	case predecode.KLdNoWB:
		addr = regs[r.R1] + r.Imm
		if uint64(addr) >= uint64(m.size) {
			return 0, false, 0, fmt.Errorf("emu: pc %d: load address %d out of range", pc, addr)
		}
	case predecode.KSt:
		addr = regs[r.R1] + r.Imm
		if v := regs[r.R2]; !m.store(addr, v) && !m.grow(addr, v) {
			return 0, false, 0, fmt.Errorf("emu: pc %d: store address %d out of range", pc, addr)
		}
	case predecode.KBeqz:
		if regs[r.R1] == 0 {
			taken = true
			next = int(r.Target)
		}
	case predecode.KBnez:
		if regs[r.R1] != 0 {
			taken = true
			next = int(r.Target)
		}
	case predecode.KJmp:
		next = int(r.Target)
	case predecode.KCall:
		regs[isa.RegLR] = int64(pc + 1)
		next = int(r.Target)
	case predecode.KCallR:
		regs[isa.RegLR] = int64(pc + 1)
		next = int(regs[r.R1])
	case predecode.KRet:
		next = int(regs[r.R1]) // R1 == RegLR
	case predecode.KJr:
		next = int(regs[r.R1])
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
	case predecode.KHalt:
		m.halted = true
		next = pc
	default: // KBad
		return 0, false, 0, fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, m.prog.Code[pc].Op)
	}
	if !m.halted && uint(next) >= uint(len(m.pre.Recs)) {
		return 0, false, 0, fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next)
	}
	return next, taken, addr, nil
}
