package core

import (
	"fmt"
	"math/rand"
	"slices"

	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/profile"
)

// Baseline enumerates the simple selection algorithms of Section 7.2.
type Baseline int

const (
	// EveryBranch selects all conditional branches (Every-br).
	EveryBranch Baseline = iota
	// Random50 selects 50% of all branches at random.
	Random50
	// HighBP5 selects branches with > 5% profiled misprediction rate.
	HighBP5
	// Immediate selects all branches that have an immediate post-dominator.
	Immediate
	// IfElse selects only simple if / if-else branches with no intervening
	// control flow.
	IfElse
)

// String names the baseline.
func (b Baseline) String() string {
	switch b {
	case EveryBranch:
		return "Every-br"
	case Random50:
		return "Random-50"
	case HighBP5:
		return "High-BP-5"
	case Immediate:
		return "Immediate"
	case IfElse:
		return "If-else"
	}
	return fmt.Sprintf("baseline(%d)", int(b))
}

// SelectBaseline runs one of the simple algorithms. For every selected
// branch the IPOSDOM, when it exists, is the single CFM point (footnote 10);
// branches without one get a CFM-less annotation (dual-path until resolve).
func SelectBaseline(prog *isa.Program, prof *profile.Profile, b Baseline, seed int64) (*Result, error) {
	res := &Result{Annots: map[int]*isa.DivergeInfo{}}
	rng := rand.New(rand.NewSource(seed))
	for _, fa := range cfg.Shared(prog).Funcs {
		if fa.Err != nil {
			return nil, fmt.Errorf("core: %s: %w", fa.Fn.Name, fa.Err)
		}
		g := fa.Graph
		for _, brPC := range g.CondBranches() {
			res.Stats.CandidatesConsidered++
			ipos := cfg.IPosDom(g, fa.PDom, brPC)
			selected := false
			switch b {
			case EveryBranch:
				selected = true
			case Random50:
				selected = rng.Intn(2) == 0
			case HighBP5:
				selected = prof.BranchExec(brPC) > 0 && prof.MispRate(brPC) > 0.05
			case Immediate:
				selected = ipos >= 0
			case IfElse:
				selected = isSimpleIfElse(g, brPC, ipos)
			}
			if !selected {
				continue
			}
			annot := &isa.DivergeInfo{}
			if ipos >= 0 {
				annot.CFMs = []isa.CFM{{Kind: isa.CFMAddr, Addr: g.Blocks[ipos].Start, MergeProb: 1}}
				res.Stats.Simple++
			} else {
				res.Stats.Freq++ // dual-path, no CFM
			}
			res.Annots[brPC] = annot
		}
	}
	return checkResult(prog, res)
}

// isSimpleIfElse reports whether the branch is a simple hammock: each arm
// is empty or one straight-line block that falls into the IPOSDOM.
func isSimpleIfElse(g *cfg.Graph, brPC, ipos int) bool {
	if ipos < 0 {
		return false
	}
	for _, a := range g.BlockAt(brPC).Succs {
		if a != ipos && (a == g.ExitID || g.Code[g.Blocks[a].End-1].IsCondBranch() || !slices.Equal(g.Succs(a), []int{ipos})) {
			return false
		}
	}
	return true
}
