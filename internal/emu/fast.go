package emu

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// This file is the predecoded fast path of the emulator. It executes the
// per-PC records produced by predecode.Compile instead of re-interpreting
// isa.Inst words, in three shapes:
//
//   - exec1 runs a single record and is the engine behind Step and
//     StepBatch (the pipeline's batched trace feed);
//   - RunBlock retires a whole straight-line run in one call, with the PC
//     bounds check and the branch-class test hoisted out of the loop — the
//     profiler's and Run's hot path.
//
// Every shape must be observationally identical to StepRef, the reference
// interpreter in emu.go; the differential suite in diff_test.go and
// FuzzEmuDiff enforce that trace-for-trace and fault-for-fault.

// BlockRun describes one block-batched execution step: the contiguous PC
// range [Start, Start+N) of instructions retired by the call and, when the
// run was ended by a conditional branch, that branch's pc and outcome.
type BlockRun struct {
	// Start is the pc of the first instruction retired.
	Start int
	// N is the number of instructions retired; they occupy the contiguous
	// range [Start, Start+N).
	N uint64
	// Branch is the pc of the conditional branch that ended the run, or -1
	// when the run ended for another reason (budget, unconditional control
	// flow, halt, or a fault).
	Branch int
	// Taken is the outcome of the ending branch (valid when Branch >= 0).
	Taken bool
}

// RunBlock executes from the current PC to the end of the straight-line run
// (inclusive of the control-flow instruction that ends it), retiring at most
// max instructions when max > 0. Because every conditional branch ends a
// run, a caller that inspects Branch/Taken after each call observes exactly
// the per-branch sequence a Step loop would — that is the contract the
// profiler's predictor hook depends on.
//
// Faults match Step: the faulting instruction's side effects are applied but
// it is not counted in N and the PC is left pointing at it.
func (m *Machine) RunBlock(max uint64) (BlockRun, error) {
	br := BlockRun{Start: m.PC, Branch: -1}
	if m.halted {
		return br, ErrHalted
	}
	recs := m.pre.Recs
	pc := m.PC
	if uint(pc) >= uint(len(recs)) {
		return br, fmt.Errorf("emu: pc %d out of range", pc)
	}
	start := pc
	end := int(recs[pc].NextCtl) // pc of the run-ending instruction
	limit := end
	// The ender costs one more instruction than the straight-line portion,
	// so it only runs when the budget strictly exceeds that portion.
	runEnder := true
	if max > 0 && uint64(end-pc) >= max {
		limit = pc + int(max)
		runEnder = false
	}
	// A run that reaches the end of the code segment has no ender: its last
	// instruction executes and then faults on the fall-through, exactly like
	// the reference interpreter.
	fellOff := false
	if limit == len(recs) {
		limit--
		fellOff = true
	}

	regs := &m.Regs
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
				return m.blockFault(&br, start, pc, fmt.Errorf("emu: pc %d: load address %d out of range", pc, a))
			}
			regs[r.Rd] = v
		case predecode.KLdNoWB:
			a := regs[r.R1] + r.Imm
			if uint64(a) >= uint64(m.size) {
				return m.blockFault(&br, start, pc, fmt.Errorf("emu: pc %d: load address %d out of range", pc, a))
			}
		case predecode.KSt:
			a := regs[r.R1] + r.Imm
			if v := regs[r.R2]; !m.store(a, v) && !m.grow(a, v) {
				return m.blockFault(&br, start, pc, fmt.Errorf("emu: pc %d: store address %d out of range", pc, a))
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
		// visible), then report whichever fault it raises: its own, or the
		// fall-through off the end of the code segment.
		m.PC = pc
		br.N = uint64(pc - start)
		m.Retired += br.N
		_, _, _, err := m.exec1(pc)
		return br, err
	}
	if !runEnder {
		// Budget exhausted mid-run.
		m.PC = pc
		br.N = uint64(pc - start)
		m.Retired += br.N
		return br, nil
	}

	// Control-flow (or undecodable) instruction ending the run.
	r := &recs[pc]
	next := pc + 1
	switch r.Kind {
	case predecode.KBeqz:
		br.Branch = pc
		if regs[r.R1] == 0 {
			br.Taken = true
			next = int(r.Target)
		}
	case predecode.KBnez:
		br.Branch = pc
		if regs[r.R1] != 0 {
			br.Taken = true
			next = int(r.Target)
		}
	case predecode.KJmp:
		next = int(r.Target)
	case predecode.KCall:
		regs[isa.RegLR] = int64(pc + 1)
		next = int(r.Target)
	case predecode.KCallR:
		// The link register is written before the target register is read,
		// so callr through the link register jumps to pc+1.
		regs[isa.RegLR] = int64(pc + 1)
		next = int(regs[r.R1])
	case predecode.KRet:
		next = int(regs[r.R1]) // R1 == RegLR
	case predecode.KJr:
		next = int(regs[r.R1])
	case predecode.KHalt:
		m.halted = true
		next = pc
	default: // KBad
		return m.blockFault(&br, start, pc,
			fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, m.prog.Code[pc].Op))
	}
	if !m.halted && uint(next) >= uint(len(recs)) {
		// The branch itself faulted: it is not retired, so it must not be
		// reported to the caller's branch hook either.
		br.Branch = -1
		br.Taken = false
		return m.blockFault(&br, start, pc,
			fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
	}
	m.PC = next
	br.N = uint64(pc - start + 1)
	m.Retired += br.N
	return br, nil
}

// blockFault finalises a RunBlock that faulted at pc: instructions before pc
// are retired, the PC is parked on the faulting instruction.
func (m *Machine) blockFault(br *BlockRun, start, pc int, err error) (BlockRun, error) {
	m.PC = pc
	br.N = uint64(pc - start)
	m.Retired += br.N
	return *br, err
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
