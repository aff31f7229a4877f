package core

import (
	"fmt"
	"math/rand"

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
	if err := checkResult(prog, res); err != nil {
		return nil, err
	}
	return res, nil
}

// isSimpleIfElse reports whether the branch is a simple hammock: both arms
// are at most one straight-line block that falls into the IPOSDOM.
func isSimpleIfElse(g *cfg.Graph, brPC, ipos int) bool {
	if ipos < 0 {
		return false
	}
	limits := cfg.PathLimits{MaxInsts: 1 << 20, MaxCondBrs: 0, MinExecProb: 0, CallWeight: -1}
	uniform := func(g *cfg.Graph, from, to int) float64 {
		n := len(g.Succs(from))
		if n == 0 {
			return 0
		}
		return 1 / float64(n)
	}
	tkSet, ntSet := cfg.BranchPaths(g, brPC, ipos, uniform, limits)
	tk, nt := side{tkSet, 1}, side{ntSet, 1}
	return tk.isSingleBlockTo(ipos) && nt.isSingleBlockTo(ipos)
}
