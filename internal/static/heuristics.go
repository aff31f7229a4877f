package static

// Ball-Larus-style syntactic branch-prediction heuristics, adapted to DISA.
// Each heuristic that applies to a branch contributes an independent estimate
// of the taken probability; the estimates are combined with the
// Dempster-Shafer evidence rule, following Wu & Larus ("Static Branch
// Frequency and Program Profile Analysis", MICRO-27). The numeric
// probabilities are the Wu-Larus measured hit rates for each heuristic.

import (
	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// Wu-Larus measured probabilities for each heuristic class. A value is the
// probability that the direction the heuristic favours is the one taken.
const (
	probLoopBack   = 0.88 // back edges (loop-branch heuristic)
	probLoopExit   = 0.80 // edges staying inside a loop (loop-exit heuristic)
	probLoopHeader = 0.75 // edges entering a fresh loop (loop-header heuristic)
	probCompare    = 0.84 // opcode heuristic: equality/negative compares fail
	probValue      = 0.60 // pointer/value heuristic: loaded values are non-zero
	probCall       = 0.78 // call heuristic: successors containing calls avoided
	probReturn     = 0.72 // return heuristic: returning successors avoided
	probStore      = 0.55 // store heuristic: storing successors slightly avoided
	probGuard      = 0.62 // guard heuristic: successors using the tested register favoured

	// minProb/maxProb clamp every final estimate away from 0 and 1: a static
	// analysis is never entitled to certainty, and downstream cost models
	// divide by both p and 1-p.
	minProb = 0.02
	maxProb = 1 - minProb
)

// dsCombine merges two independent probability estimates for the same event
// with the Dempster-Shafer evidence combination rule.
func dsCombine(p, q float64) float64 {
	d := p*q + (1-p)*(1-q)
	if d == 0 {
		return 0.5
	}
	return p * q / d
}

// innermostLoopOf returns the smallest-body loop containing block id, or nil.
func innermostLoopOf(fa *cfg.FuncAnalysis, id int) *cfg.Loop {
	var best *cfg.Loop
	for _, l := range fa.Loops {
		if l.Contains(id) && (best == nil || len(l.Body) < len(best.Body)) {
			best = l
		}
	}
	return best
}

// localDef scans backwards from the branch within its own block for the
// instruction defining register r. Returns nil when the definition is outside
// the block (or r is the hardwired zero register).
func localDef(g *cfg.Graph, blk *cfg.Block, brPC, r int) *isa.Inst {
	if r == isa.RegZero {
		return nil
	}
	for pc := brPC - 1; pc >= blk.Start; pc-- {
		if g.Code[pc].Writes() == r {
			return &g.Code[pc]
		}
	}
	return nil
}

// condNonZeroProb maps the defining instruction of a branch condition to the
// static probability that the defined value is non-zero, when the opcode
// carries a signal. ok is false when the opcode says nothing.
func condNonZeroProb(def *isa.Inst) (p float64, ok bool) {
	switch def.Op {
	case isa.OpCmpEQ:
		// Equality comparisons rarely hold (Wu-Larus opcode heuristic).
		return 1 - probCompare, true
	case isa.OpCmpNE:
		return probCompare, true
	case isa.OpCmpLT, isa.OpCmpLE:
		// Compares against zero: values are rarely negative.
		if def.UseImm && def.Imm == 0 {
			return 1 - probCompare, true
		}
	case isa.OpCmpGT, isa.OpCmpGE:
		if def.UseImm && def.Imm == 0 {
			return probCompare, true
		}
	case isa.OpLd, isa.OpIn:
		// Pointer/value heuristic: loaded or read values are usually non-zero.
		return probValue, true
	}
	return 0, false
}

// branchTakenProb estimates the probability that the conditional branch
// ending blk is taken, combining every applicable heuristic. The result is
// clamped to [minProb, maxProb].
func branchTakenProb(fa *cfg.FuncAnalysis, blk *cfg.Block) float64 {
	g := fa.Graph
	brPC := blk.End - 1
	br := g.Code[brPC]
	nt, tk := blk.Succs[0], blk.Succs[1]
	if nt == tk {
		return 0.5 // both directions land on the same block
	}

	// Statically decidable conditions: the zero register, or a constant move
	// feeding the branch inside its own block.
	decided := func(zero bool) float64 {
		if (br.Op == isa.OpBeqz) == zero {
			return maxProb
		}
		return minProb
	}
	if br.Rs1 == isa.RegZero {
		return decided(true)
	}
	def := localDef(g, blk, brPC, int(br.Rs1))
	if def != nil && def.Op == isa.OpMovI {
		return decided(def.Imm == 0)
	}

	p := 0.5
	apply := func(takenProb float64) { p = dsCombine(p, takenProb) }

	// Loop-branch heuristic: a back edge (successor dominating the branch
	// block) is taken with high probability.
	backNT := nt != g.ExitID && fa.Dom.Dominates(nt, blk.ID)
	backTK := tk != g.ExitID && fa.Dom.Dominates(tk, blk.ID)
	if backTK != backNT {
		if backTK {
			apply(probLoopBack)
		} else {
			apply(1 - probLoopBack)
		}
	}

	// Loop-exit heuristic: for a branch inside a loop with exactly one
	// successor leaving it, control stays inside. Skipped when the back-edge
	// heuristic already voted on the same choice.
	if l := innermostLoopOf(fa, blk.ID); l != nil && !backTK && !backNT {
		ntIn := nt != g.ExitID && l.Contains(nt)
		tkIn := tk != g.ExitID && l.Contains(tk)
		if ntIn != tkIn {
			if tkIn {
				apply(probLoopExit)
			} else {
				apply(1 - probLoopExit)
			}
		}
	}

	// Loop-header heuristic: a successor that is the header of a loop not
	// containing the branch (and does not post-dominate it) is favoured.
	isFreshHeader := func(s int) bool {
		if s == g.ExitID || fa.PDom.Dominates(s, blk.ID) {
			return false
		}
		for _, l := range fa.Loops {
			if l.Header == s && !l.Contains(blk.ID) {
				return true
			}
		}
		return false
	}
	lhNT, lhTK := isFreshHeader(nt), isFreshHeader(tk)
	if lhNT != lhTK {
		if lhTK {
			apply(probLoopHeader)
		} else {
			apply(1 - probLoopHeader)
		}
	}

	// Opcode heuristic: the instruction defining the condition register says
	// how likely the register is non-zero; map through the branch polarity.
	if def != nil {
		if nz, ok := condNonZeroProb(def); ok {
			if br.Op == isa.OpBnez {
				apply(nz)
			} else {
				apply(1 - nz)
			}
		}
	}

	// Successor-content heuristics (call, return, store): a successor that
	// performs the operation — and does not post-dominate the branch — is
	// avoided with the heuristic's probability. Guard heuristic: a successor
	// reading the tested register before redefining it is favoured.
	postdoms := func(s int) bool {
		return s != g.ExitID && fa.PDom.Dominates(s, blk.ID)
	}
	blockHas := func(s int, match func(isa.Inst) bool) bool {
		if s == g.ExitID || postdoms(s) {
			return false
		}
		b := g.Blocks[s]
		for pc := b.Start; pc < b.End; pc++ {
			if match(g.Code[pc]) {
				return true
			}
		}
		return false
	}
	// avoid votes against the flagged successor, favour votes for it.
	avoid := func(ntHit, tkHit bool, prob float64) {
		switch {
		case tkHit && !ntHit:
			apply(1 - prob)
		case ntHit && !tkHit:
			apply(prob)
		}
	}
	isCall := func(in isa.Inst) bool { return in.Op == isa.OpCall || in.Op == isa.OpCallR }
	avoid(blockHas(nt, isCall), blockHas(tk, isCall), probCall)
	returning := func(s int) bool {
		return s != g.ExitID && !postdoms(s) && g.Blocks[s].HasReturn
	}
	avoid(returning(nt), returning(tk), probReturn)
	isStore := func(in isa.Inst) bool { return in.Op == isa.OpSt }
	avoid(blockHas(nt, isStore), blockHas(tk, isStore), probStore)
	guarded := func(s int) bool {
		return blockHas(s, func(in isa.Inst) bool { return usesReg(in, int(br.Rs1)) })
	}
	avoid(guarded(tk), guarded(nt), probGuard) // favour = avoid the other side

	if p < minProb {
		return minProb
	}
	if p > maxProb {
		return maxProb
	}
	return p
}

// usesReg reports whether the instruction reads register r.
func usesReg(in isa.Inst, r int) bool {
	var buf [3]int
	for _, rd := range in.Reads(buf[:0]) {
		if rd == r {
			return true
		}
	}
	return false
}
