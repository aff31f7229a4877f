// Package emu implements a functional (architectural) emulator for DISA
// binaries. Its block executor (RunBlocks) retires whole straight-line runs
// and reports their retirement events through hooks: the edge profiler and
// the pipeline's functional warming consume the events, and StepBatch
// records them as trace entries, which the cycle-level pipeline model
// consumes as the correct execution path while synthesising wrong-path
// activity itself. StepRef, a one-instruction reference interpreter, is the
// oracle the block executor is tested against.
package emu

import (
	"errors"
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// DefaultMemWords is the default data-memory size in 8-byte words.
const DefaultMemWords = 1 << 20

// ErrHalted is returned by StepRef, StepBatch and RunBlocks after the
// machine has executed a halt.
var ErrHalted = errors.New("emu: machine halted")

// Trace describes one architecturally retired instruction.
type Trace struct {
	// PC is the address of the retired instruction.
	PC int
	// NextPC is the address of the next instruction in program order.
	NextPC int
	// Taken is valid for conditional branches.
	Taken bool
	// Addr is the effective memory address for loads and stores, else 0.
	Addr int64
}

// Machine is a DISA architectural machine: registers, a word-addressed data
// memory, an input tape and an output stream.
//
// The data memory spans word addresses [0, size). Globals live at its bottom
// and the stack grows down from its top, so a program touches two small
// regions of a large space. Only those regions are backed: lo holds words
// [0, len(lo)), hi holds words [hiBase, size), and every other word reads as
// zero until a store grows the nearer segment over it (see store and grow).
// Addresses, and therefore traces and faults, are those of a flat image of
// size words.
type Machine struct {
	prog *isa.Program
	// pre is the predecoded form of prog.Code, built once per machine and
	// executed by the block executor in fast.go.
	pre *predecode.Program
	// Regs holds the 64 architectural registers. Regs[0] stays zero.
	Regs [isa.NumRegs]int64
	// lo and hi are the backed segments of data memory; hiBase+len(hi) ==
	// size and len(lo) <= hiBase always hold.
	lo, hi       []int64
	hiBase, size int64
	// PC is the next instruction to execute.
	PC int
	// Output accumulates values written with the out instruction.
	Output []int64

	input  []int64
	inPos  int
	halted bool
	// Retired counts architecturally executed instructions.
	Retired uint64
	// rec is StepBatch's trace recorder, built on its first call.
	rec *traceRecorder
}

// stackWords is the size of the stack segment New backs below the top of
// memory, and the least a segment grows by; deeper stacks grow it on their
// first store.
const stackWords = 512

// New creates a machine for the program with memWords of data memory
// (DefaultMemWords if memWords <= 0) and the given input tape. The stack
// pointer starts at the top of memory. Only the globals and the top
// stackWords words are allocated up front; the rest of the space reads as
// zero and is backed when first stored to.
func New(p *isa.Program, input []int64, memWords int) *Machine {
	if memWords <= 0 {
		memWords = DefaultMemWords
	}
	if memWords < p.GlobalWords+1024 {
		memWords = p.GlobalWords + 1024
	}
	size := int64(memWords)
	m := &Machine{
		prog:   p,
		pre:    predecode.Shared(p),
		lo:     make([]int64, p.GlobalWords),
		hi:     make([]int64, stackWords),
		hiBase: size - stackWords,
		size:   size,
		PC:     p.Entry,
		input:  input,
	}
	m.Regs[isa.RegSP] = size
	return m
}

// MemWords returns the size of the data memory in words.
func (m *Machine) MemWords() int { return int(m.size) }

// Load returns the word at address a, and false when a lies outside the data
// memory.
func (m *Machine) Load(a int64) (int64, bool) { return m.load(a) }

// load reads word a. Unbacked words inside the address space read as zero;
// ok is false when a is outside it. Every engine reads memory through load.
func (m *Machine) load(a int64) (v int64, ok bool) {
	if uint64(a) < uint64(len(m.lo)) {
		return m.lo[a], true
	}
	if i := a - m.hiBase; uint64(i) < uint64(len(m.hi)) {
		return m.hi[i], true
	}
	return 0, uint64(a) < uint64(m.size)
}

// store writes v to word a and reports whether a was backed. It is the
// inlined fast path of every engine's stores; a false return sends the
// engine to grow, which backs the word or reports a fault.
func (m *Machine) store(a, v int64) bool {
	if uint64(a) < uint64(len(m.lo)) {
		m.lo[a] = v
		return true
	}
	if i := a - m.hiBase; uint64(i) < uint64(len(m.hi)) {
		m.hi[i] = v
		return true
	}
	return false
}

// grow backs the unbacked word a by extending the nearer segment over it —
// lo upward or hi downward — and stores v there; it reports false, storing
// nothing, when a is outside the address space. A segment at least doubles
// but never crosses into the other, so growth is amortised and the two
// segments together never exceed the flat image they stand in for; once they
// meet, every address is backed.
func (m *Machine) grow(a, v int64) bool {
	if uint64(a) >= uint64(m.size) {
		return false
	}
	lo, hi := int64(len(m.lo)), int64(len(m.hi))
	if a-lo < m.hiBase-a {
		seg := make([]int64, min(max(2*lo, a+1, stackWords), m.hiBase))
		copy(seg, m.lo)
		m.lo = seg
		seg[a] = v
		return true
	}
	n := min(max(2*hi, m.size-a, stackWords), m.size-lo)
	seg := make([]int64, n)
	copy(seg[n-hi:], m.hi)
	m.hi = seg
	m.hiBase = m.size - n
	seg[a-m.hiBase] = v
	return true
}

// Predecoded returns the machine's predecoded program, shared with the
// pipeline so the code segment is lowered once per simulation.
func (m *Machine) Predecoded() *predecode.Program { return m.pre }

// Program returns the program being executed.
func (m *Machine) Program() *isa.Program { return m.prog }

// Halted reports whether the machine has executed a halt instruction.
func (m *Machine) Halted() bool { return m.halted }

// InputRemaining returns the number of unread input-tape values.
func (m *Machine) InputRemaining() int { return len(m.input) - m.inPos }

// setRd writes v to the destination register unless it is the hardwired
// zero register.
func (m *Machine) setRd(rd uint8, v int64) {
	if rd != isa.RegZero {
		m.Regs[rd] = v
	}
}

// StepRef is the reference interpreter: a direct transcription of the ISA
// semantics as one switch over isa.Inst, kept as the oracle the block
// executor is differentially tested against (and as readable documentation
// of the instruction set's behaviour).
func (m *Machine) StepRef() (Trace, error) {
	if m.halted {
		return Trace{}, ErrHalted
	}
	if m.PC < 0 || m.PC >= len(m.prog.Code) {
		return Trace{}, fmt.Errorf("emu: pc %d out of range", m.PC)
	}
	pc := m.PC
	in := m.prog.Code[pc]
	tr := Trace{PC: pc}
	next := pc + 1

	// The second ALU operand, resolved once for the opcodes that use it.
	var src2 int64
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpCmpEQ, isa.OpCmpNE, isa.OpCmpLT, isa.OpCmpLE,
		isa.OpCmpGT, isa.OpCmpGE:
		if in.UseImm {
			src2 = in.Imm
		} else {
			src2 = m.Regs[in.Rs2]
		}
	}
	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		m.setRd(in.Rd, m.Regs[in.Rs1]+src2)
	case isa.OpSub:
		m.setRd(in.Rd, m.Regs[in.Rs1]-src2)
	case isa.OpMul:
		m.setRd(in.Rd, m.Regs[in.Rs1]*src2)
	case isa.OpDiv:
		d := src2
		if d == 0 {
			m.setRd(in.Rd, 0)
		} else {
			m.setRd(in.Rd, m.Regs[in.Rs1]/d)
		}
	case isa.OpRem:
		d := src2
		if d == 0 {
			m.setRd(in.Rd, 0)
		} else {
			m.setRd(in.Rd, m.Regs[in.Rs1]%d)
		}
	case isa.OpAnd:
		m.setRd(in.Rd, m.Regs[in.Rs1]&src2)
	case isa.OpOr:
		m.setRd(in.Rd, m.Regs[in.Rs1]|src2)
	case isa.OpXor:
		m.setRd(in.Rd, m.Regs[in.Rs1]^src2)
	case isa.OpShl:
		m.setRd(in.Rd, m.Regs[in.Rs1]<<(uint64(src2)&63))
	case isa.OpShr:
		m.setRd(in.Rd, m.Regs[in.Rs1]>>(uint64(src2)&63))
	case isa.OpCmpEQ:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] == src2))
	case isa.OpCmpNE:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] != src2))
	case isa.OpCmpLT:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] < src2))
	case isa.OpCmpLE:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] <= src2))
	case isa.OpCmpGT:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] > src2))
	case isa.OpCmpGE:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] >= src2))
	case isa.OpMovI:
		m.setRd(in.Rd, in.Imm)
	case isa.OpMov:
		m.setRd(in.Rd, m.Regs[in.Rs1])
	case isa.OpLd:
		addr := m.Regs[in.Rs1] + in.Imm
		v, ok := m.load(addr)
		if !ok {
			return Trace{}, fmt.Errorf("emu: pc %d: load address %d out of range", pc, addr)
		}
		tr.Addr = addr
		m.setRd(in.Rd, v)
	case isa.OpSt:
		addr := m.Regs[in.Rs1] + in.Imm
		if v := m.Regs[in.Rs2]; !m.store(addr, v) && !m.grow(addr, v) {
			return Trace{}, fmt.Errorf("emu: pc %d: store address %d out of range", pc, addr)
		}
		tr.Addr = addr
	case isa.OpBeqz:
		if m.Regs[in.Rs1] == 0 {
			tr.Taken = true
			next = in.Target
		}
	case isa.OpBnez:
		if m.Regs[in.Rs1] != 0 {
			tr.Taken = true
			next = in.Target
		}
	case isa.OpJmp:
		next = in.Target
	case isa.OpCall:
		m.Regs[isa.RegLR] = int64(pc + 1)
		next = in.Target
	case isa.OpCallR:
		m.Regs[isa.RegLR] = int64(pc + 1)
		next = int(m.Regs[in.Rs1])
	case isa.OpRet:
		next = int(m.Regs[isa.RegLR])
	case isa.OpJr:
		next = int(m.Regs[in.Rs1])
	case isa.OpIn:
		if m.inPos < len(m.input) {
			m.setRd(in.Rd, m.input[m.inPos])
			m.inPos++
		} else {
			m.setRd(in.Rd, 0)
		}
	case isa.OpInAvail:
		m.setRd(in.Rd, int64(len(m.input)-m.inPos))
	case isa.OpOut:
		m.Output = append(m.Output, m.Regs[in.Rs1])
	case isa.OpHalt:
		m.halted = true
		next = pc
	default:
		return Trace{}, fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, in.Op)
	}

	if !m.halted && (next < 0 || next >= len(m.prog.Code)) {
		return Trace{}, fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next)
	}
	m.PC = next
	tr.NextPC = next
	m.Retired++
	return tr, nil
}

// Run executes until halt or until maxInsts instructions have retired
// (maxInsts == 0 means no limit) on the block-batched path, and returns the
// number of instructions retired by this call. A run that reaches the limit
// without halting returns an "instruction limit exceeded" error.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	if m.halted {
		return 0, nil
	}
	n, err := m.RunBlocks(maxInsts, nil)
	if err == nil && !m.halted {
		err = fmt.Errorf("emu: instruction limit %d exceeded", maxInsts)
	}
	return n, err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
