package verify

import (
	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// Register def-before-use checking: a forward definite-assignment dataflow
// over each function's CFG. The 64-register file maps exactly onto a uint64
// bitset.
//
// The analysis encodes the software register convention (see internal/isa
// and internal/codegen): at function entry the zero register, the argument
// registers, the callee-saved local slots, the stack pointer and the link
// register all hold defined values, while the caller-clobbered range
// RegTempFirst..RegTempLast (expression temporaries and codegen scratch)
// holds garbage. A call clobbers the temporaries and the argument registers
// other than the return value. Reading a register that is not definitely
// assigned on every path is a diagnostic: it means a corrupted binary or a
// code generator that leaked a temp across a block or call boundary.

var (
	tempMask = rangeMask(isa.RegTempFirst, isa.RegTempLast)
	// Registers a call leaves undefined for the caller: the temporaries plus
	// the argument registers other than the return value.
	callClobberMask = tempMask | (rangeMask(isa.RegArgFirst, isa.RegArgLast) &^ (1 << isa.RegRet))
	// Registers defined when a function is entered.
	entryDefined = ^uint64(0) &^ tempMask
)

func rangeMask(lo, hi int) uint64 {
	var m uint64
	for r := lo; r <= hi; r++ {
		m |= 1 << r
	}
	return m
}

// dataflowPass runs def-before-use over every function.
func (c *checker) dataflowPass() {
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			continue // the cfg pass reports the build failure
		}
		c.checkDefBeforeUse(fa)
	}
}

// instEffect is one instruction's register transfer as a (kill, gen) pair:
// defined' = defined &^ kill | gen.
func instEffect(inst *isa.Inst) (kill, gen uint64) {
	if inst.Op == isa.OpCall || inst.Op == isa.OpCallR {
		// A call clobbers the caller-saved registers; the callee defines the
		// return value and the call itself writes the link register.
		return callClobberMask, (1 << isa.RegRet) | (1 << isa.RegLR)
	}
	if w := inst.Writes(); w >= 0 {
		return 0, 1 << w
	}
	return 0, 0
}

// blockEffect folds a block's instruction effects into one (kill, gen)
// pair: applying (k1, g1) then (k2, g2) is (k1|k2, g1&^k2 | g2).
func blockEffect(code []isa.Inst) (kill, gen uint64) {
	for i := range code {
		k, g := instEffect(&code[i])
		kill |= k
		gen = gen&^k | g
	}
	return kill, gen
}

// definedIn solves the definite-assignment fixpoint over the function's
// blocks and returns the registers defined on entry to each block. The
// iteration applies each block's summarised (kill, gen) effect, so it never
// walks instructions.
func (c *checker) definedIn(g *cfg.Graph) []uint64 {
	n := len(g.Blocks)
	buf := make([]uint64, 4*n)
	in, out, kill, gen := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	for id, b := range g.Blocks {
		kill[id], gen[id] = blockEffect(c.p.Code[b.Start:b.End])
		// Top of the must-analysis lattice: everything defined. Unreachable
		// blocks keep this value and produce no diagnostics.
		in[id] = ^uint64(0)
		out[id] = ^uint64(0)
	}
	in[0] = entryDefined

	for changed := true; changed; {
		changed = false
		for id := 0; id < n; id++ {
			preds := g.Preds(id)
			newIn := ^uint64(0)
			for _, p := range preds {
				newIn &= out[p]
			}
			if id == 0 {
				// The entry block is additionally reached from the caller
				// (with only the convention's entry set defined), even when a
				// back edge also targets it.
				newIn &= entryDefined
			} else if len(preds) == 0 {
				newIn = in[id] // unreachable: keep lattice top
			}
			newOut := newIn&^kill[id] | gen[id]
			if newIn != in[id] || newOut != out[id] {
				in[id], out[id] = newIn, newOut
				changed = true
			}
		}
	}
	return in
}

// checkDefBeforeUse reports every read of a register that is not definitely
// assigned, walking each block's instructions once from its fixpoint
// in-set.
func (c *checker) checkDefBeforeUse(fa *cfg.FuncAnalysis) {
	in := c.definedIn(fa.Graph)
	var readBuf [4]int
	for id, b := range fa.Graph.Blocks {
		defined := in[id]
		for pc := b.Start; pc < b.End; pc++ {
			inst := &c.p.Code[pc]
			for _, r := range inst.Reads(readBuf[:0]) {
				if defined&(1<<r) == 0 {
					c.report(PassDataflow, pc, "%s: r%d may be read before definition in %s",
						*inst, r, fa.Fn.Name)
				}
			}
			k, g := instEffect(inst)
			defined = defined&^k | g
		}
	}
}
