package emu

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// WarmHooks receives the microarchitecturally relevant events of a warm
// fast-forward (RunWarm): retired straight-line extents for I-cache line
// warming, retired load addresses for D-cache warming, and retired control
// transfers for BTB / RAS / branch-history warming. All hooks must be
// non-nil; RunWarm does not check. Hooks observe events in retirement order.
//
// The struct deliberately has no per-instruction hook: per-instruction
// callbacks are what makes step-based warming an order of magnitude slower
// than block-batched execution. Events fire only at loads (~1 in 4
// instructions) and control flow (~1 in 6), so the straight-line majority
// runs at full RunBlock speed.
type WarmHooks struct {
	// Block is called with each retired straight-line extent [start, end]
	// (pc bounds, inclusive; the ending control-flow instruction is
	// included when it retired).
	Block func(start, end int)
	// Load is called with each retired load's effective word address,
	// after its bounds check passed.
	Load func(addr int64)
	// Branch is called for each retired conditional branch with its taken
	// target.
	Branch func(pc int, taken bool, target int)
	// Call is called for each retired call with its target (the return
	// address is pc+1).
	Call func(pc, next int)
	// Ret is called for each retired return.
	Ret func(pc int)
	// Jump is called for each retired unconditional jump (jmp/jr).
	Jump func(pc, next int)
}

// RunWarm executes up to max instructions (unlimited when max == 0) on a
// block-batched path that reports warming events through h. It is RunBlock's
// loop with hook calls in the load and control-flow cases, iterated over
// whole straight-line runs per outer step; fault and halt semantics match
// RunBlock exactly (fault: side effects applied, PC parked on the faulting
// instruction, which is not counted; halt: counted, further calls return
// ErrHalted). It returns the number of instructions retired.
// TestRunWarmMatchesRunBlock pins state-equivalence against RunBlock.
func (m *Machine) RunWarm(max uint64, h *WarmHooks) (uint64, error) {
	if m.halted {
		return 0, ErrHalted
	}
	recs := m.pre.Recs
	regs := &m.Regs
	var done uint64
	for !m.halted && (max == 0 || done < max) {
		pc := m.PC
		if uint(pc) >= uint(len(recs)) {
			return done, fmt.Errorf("emu: pc %d out of range", pc)
		}
		start := pc
		end := int(recs[pc].NextCtl)
		limit := end
		runEnder := true
		if max > 0 && uint64(end-pc) >= max-done {
			limit = pc + int(max-done)
			runEnder = false
		}
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
					return m.warmFault(h, &done, start, pc, fmt.Errorf("emu: pc %d: load address %d out of range", pc, a))
				}
				regs[r.Rd] = v
				h.Load(a)
			case predecode.KLdNoWB:
				a := regs[r.R1] + r.Imm
				if uint64(a) >= uint64(m.size) {
					return m.warmFault(h, &done, start, pc, fmt.Errorf("emu: pc %d: load address %d out of range", pc, a))
				}
				h.Load(a)
			case predecode.KSt:
				a := regs[r.R1] + r.Imm
				if v := regs[r.R2]; !m.store(a, v) && !m.grow(a, v) {
					return m.warmFault(h, &done, start, pc, fmt.Errorf("emu: pc %d: store address %d out of range", pc, a))
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
			// Execute the final instruction (side effects are architecturally
			// visible), then report the fault it raises: its own, or the
			// fall-through off the end of the code segment. It never retires,
			// so it contributes no warming events.
			m.PC = pc
			n := uint64(pc - start)
			m.Retired += n
			done += n
			if pc > start {
				h.Block(start, pc-1)
			}
			_, _, _, err := m.exec1(pc)
			return done, err
		}
		if !runEnder {
			// Budget exhausted mid-run.
			m.PC = pc
			n := uint64(pc - start)
			m.Retired += n
			done += n
			if pc > start {
				h.Block(start, pc-1)
			}
			return done, nil
		}

		// Control-flow (or undecodable) instruction ending the run.
		r := &recs[pc]
		next := pc + 1
		switch r.Kind {
		case predecode.KBeqz, predecode.KBnez:
			taken := (regs[r.R1] == 0) == (r.Kind == predecode.KBeqz)
			if taken {
				next = int(r.Target)
			}
			if uint(next) >= uint(len(recs)) {
				return m.warmFault(h, &done, start, pc,
					fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
			}
			h.Block(start, pc)
			h.Branch(pc, taken, int(r.Target))
		case predecode.KJmp:
			next = int(r.Target)
			if uint(next) >= uint(len(recs)) {
				return m.warmFault(h, &done, start, pc,
					fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
			}
			h.Block(start, pc)
			h.Jump(pc, next)
		case predecode.KCall:
			regs[isa.RegLR] = int64(pc + 1)
			next = int(r.Target)
			if uint(next) >= uint(len(recs)) {
				return m.warmFault(h, &done, start, pc,
					fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
			}
			h.Block(start, pc)
			h.Call(pc, next)
		case predecode.KCallR:
			// The link register is written before the target register is
			// read, so callr through the link register jumps to pc+1.
			regs[isa.RegLR] = int64(pc + 1)
			next = int(regs[r.R1])
			if uint(next) >= uint(len(recs)) {
				return m.warmFault(h, &done, start, pc,
					fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
			}
			h.Block(start, pc)
			h.Call(pc, next)
		case predecode.KRet:
			next = int(regs[r.R1]) // R1 == RegLR
			if uint(next) >= uint(len(recs)) {
				return m.warmFault(h, &done, start, pc,
					fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
			}
			h.Block(start, pc)
			h.Ret(pc)
		case predecode.KJr:
			next = int(regs[r.R1])
			if uint(next) >= uint(len(recs)) {
				return m.warmFault(h, &done, start, pc,
					fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next))
			}
			h.Block(start, pc)
			h.Jump(pc, next)
		case predecode.KHalt:
			m.halted = true
			next = pc
			h.Block(start, pc)
		default: // KBad
			return m.warmFault(h, &done, start, pc,
				fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, m.prog.Code[pc].Op))
		}
		m.PC = next
		n := uint64(pc - start + 1)
		m.Retired += n
		done += n
	}
	return done, nil
}

// warmFault finalises a RunWarm block that faulted at pc: instructions
// before pc are retired (and their straight-line extent reported), the PC is
// parked on the faulting instruction.
func (m *Machine) warmFault(h *WarmHooks, done *uint64, start, pc int, err error) (uint64, error) {
	m.PC = pc
	n := uint64(pc - start)
	m.Retired += n
	*done += n
	if pc > start {
		h.Block(start, pc-1)
	}
	return *done, err
}
