package core

import (
	"fmt"
	"sort"

	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// Result is the outcome of a selection run: the annotation sidecar to attach
// to the binary, plus accounting.
type Result struct {
	Annots map[int]*isa.DivergeInfo
	Stats  SelStats
}

// Select runs the paper's diverge-branch selection over every function of
// the program, using the given profile.
func Select(prog *isa.Program, prof *profile.Profile, p Params) (*Result, error) {
	res := &Result{Annots: map[int]*isa.DivergeInfo{}}
	for _, fa := range cfg.Shared(prog).Funcs {
		if fa.Err != nil {
			return nil, fmt.Errorf("core: %s: %w", fa.Fn.Name, fa.Err)
		}
		g := fa.Graph
		for _, brPC := range g.CondBranches() {
			if prof.BranchExec(brPC) < p.MinBranchExec {
				continue
			}
			if p.TwoD != nil {
				minRate := p.TwoDMinRate
				if minRate == 0 {
					minRate = 0.02
				}
				if !p.TwoD.PossiblyMispredicted(brPC, minRate) {
					res.Stats.Rejected2D++
					continue
				}
			}
			res.Stats.CandidatesConsidered++
			if l := loopBranchOf(g, fa.Loops, brPC); l != nil {
				if p.EnableLoops {
					selectLoop(res, g, prof, l, brPC, p)
				}
				continue
			}
			selectHammock(res, g, fa.PDom, prof, brPC, p)
		}
	}
	if err := checkResult(prog, res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkResult runs the static verifier's annotation-legality pass over a
// selection result before handing it to callers: an illegal annotation set
// is a selection bug and must never reach the simulator.
func checkResult(prog *isa.Program, res *Result) error {
	if err := verify.CheckAnnots(prog.WithAnnots(res.Annots), "select"); err != nil {
		return fmt.Errorf("core: selection produced an illegal annotation set: %w", err)
	}
	return nil
}

// loopBranchOf returns the innermost natural loop for which brPC is a loop
// exit branch with its other direction staying in the loop — the paper's
// loop CFG type (Figure 3d): one direction iterates, the other leaves.
func loopBranchOf(g *cfg.Graph, loops []*cfg.Loop, brPC int) *cfg.Loop {
	l := cfg.InnermostLoopWithExit(loops, brPC)
	if l == nil {
		return nil
	}
	blk := g.BlockAt(brPC)
	ntIn := blk.Succs[0] != g.ExitID && l.Contains(blk.Succs[0])
	tkIn := blk.Succs[1] != g.ExitID && l.Contains(blk.Succs[1])
	if ntIn != tkIn {
		return l
	}
	return nil
}

// selectLoop applies the Section 5.2 heuristics to a loop exit branch.
func selectLoop(res *Result, g *cfg.Graph, prof *profile.Profile, l *cfg.Loop, brPC int, p Params) {
	if l.NumInsts(g) > p.StaticLoopSize {
		res.Stats.RejectedByThreshold++
		return
	}
	ls := prof.LoopProfile(g, l)
	if ls.AvgTripInsts > p.DynamicLoopSize || ls.AvgIters > p.LoopIter {
		res.Stats.RejectedByThreshold++
		return
	}
	blk := g.BlockAt(brPC)
	// Successor order is [fallthrough, taken]; the exit direction is the one
	// leaving the loop.
	ntIn := blk.Succs[0] != g.ExitID && l.Contains(blk.Succs[0])
	tkIn := blk.Succs[1] != g.ExitID && l.Contains(blk.Succs[1])
	if ntIn == tkIn {
		return // not a two-way loop exit
	}
	res.Annots[brPC] = &isa.DivergeInfo{
		Loop:          true,
		LoopHead:      g.Blocks[l.Header].Start,
		LoopExitTaken: ntIn, // taken leaves when fallthrough stays in
	}
	res.Stats.Loop++
}

// selectHammock runs Alg-exact / Alg-freq plus the short-hammock and
// return-CFM extensions on a non-loop conditional branch.
func selectHammock(res *Result, g *cfg.Graph, pdom *cfg.DomTree, prof *profile.Profile, brPC int, p Params) {
	ipos := cfg.IPosDom(g, pdom, brPC)
	cw := p.CallWeight
	if cw == 0 {
		cw = cfg.DefaultCallWeight
	}
	limits := cfg.PathLimits{
		MaxInsts:    p.MaxInstr,
		MaxCondBrs:  p.MaxCbr,
		MinExecProb: p.MinExecProb,
		CallWeight:  cw,
	}
	tkSet, ntSet := cfg.BranchPaths(g, brPC, ipos, prof.EdgeProb, limits)
	tk, nt := side{tkSet, cw}, side{ntSet, cw}
	if len(tkSet.Paths) == 0 || len(ntSet.Paths) == 0 {
		return
	}

	exact := ipos >= 0 && tk.allMergedAt(ipos) && nt.allMergedAt(ipos)
	var cands []int
	switch {
	case exact:
		cands = []int{ipos}
	case p.EnableFreq:
		cands = cfg.CommonBlocks(tkSet, ntSet)
		if !p.DisableChainReduction {
			cands = reduceChains(len(g.Blocks), tk, nt, cands)
		}
		if len(cands) > p.MaxCFM {
			cands = cands[:p.MaxCFM]
		}
	default:
		res.Stats.RejectedByThreshold++
		return
	}

	// Joint first-merge probabilities over the final candidate set
	// (footnote 3 semantics). Clamped to [0,1]: summing path probabilities
	// can drift an ulp above 1, which the ISA annotation validator rejects.
	tkFR := tk.firstReach(len(g.Blocks), cands)
	ntFR := nt.firstReach(len(g.Blocks), cands)
	mergeP := func(id int) float64 { return clamp01(tkFR[id] * ntFR[id]) }
	sort.SliceStable(cands, func(i, j int) bool { return mergeP(cands[i]) > mergeP(cands[j]) })

	takenProb := prof.TakenProb(brPC)

	// Short-hammock heuristic (3.4): always predicate, keep only the short
	// CFM.
	if p.EnableShort && len(cands) > 0 {
		c := cands[0]
		if tk.maxInsts(g, c) <= p.ShortMaxInsts && nt.maxInsts(g, c) <= p.ShortMaxInsts &&
			mergeP(c) >= p.ShortMinMergeProb &&
			prof.MispRate(brPC) >= p.ShortMinMispRate {
			res.Annots[brPC] = &isa.DivergeInfo{
				Short: true,
				CFMs:  []isa.CFM{{Kind: isa.CFMAddr, Addr: g.Blocks[c].Start, MergeProb: mergeP(c)}},
			}
			res.Stats.Short++
			bumpType(res, exact, tk, nt)
			return
		}
	}

	// Threshold filtering (heuristic mode).
	if !p.UseCostModel {
		kept := cands[:0]
		for _, c := range cands {
			if mergeP(c) >= p.MinMergeProb {
				kept = append(kept, c)
			}
		}
		cands = kept
	}

	// Return CFM (3.5): both sides leave through returns.
	retMerge := 0.0
	if p.EnableRetCFM && len(cands) == 0 {
		retMerge = clamp01(tk.retProb(g) * nt.retProb(g))
		if !p.UseCostModel && retMerge < p.MinMergeProb {
			retMerge = 0
		}
	}

	if len(cands) == 0 && retMerge == 0 {
		res.Stats.RejectedByThreshold++
		return
	}

	// Cost-benefit analysis (Section 4).
	if p.UseCostModel {
		ov := hammockOverhead(g, tk, nt, cands, mergeP, retMerge, takenProb, p)
		if dpredCost(ov, p) >= 0 {
			res.Stats.RejectedByCost++
			return
		}
	}

	annot := &isa.DivergeInfo{}
	for _, c := range cands {
		annot.CFMs = append(annot.CFMs, isa.CFM{
			Kind: isa.CFMAddr, Addr: g.Blocks[c].Start, MergeProb: mergeP(c),
		})
	}
	if len(cands) == 0 && retMerge > 0 {
		annot.CFMs = append(annot.CFMs, isa.CFM{Kind: isa.CFMReturn, MergeProb: retMerge})
		res.Stats.RetCFM++
	}
	res.Annots[brPC] = annot
	bumpType(res, exact, tk, nt)
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

func bumpType(res *Result, exact bool, tk, nt side) {
	if !exact {
		res.Stats.Freq++
		return
	}
	if maxCondBrs(tk) == 0 && maxCondBrs(nt) == 0 {
		res.Stats.Simple++
	} else {
		res.Stats.Nested++
	}
}

func maxCondBrs(s side) int {
	m := 0
	for i := range s.set.Paths {
		if s.set.Paths[i].CondBrs > m {
			m = s.set.Paths[i].CondBrs
		}
	}
	return m
}

// reduceChains implements Section 3.3.1: when one CFM candidate lies on a
// path to another, only the one with the highest first-merge probability in
// the chain is kept. Candidates are grouped by path co-occurrence
// (union-find) and each group contributes its best member. nb is the
// graph's block count.
func reduceChains(nb int, tk, nt side, cands []int) []int {
	if len(cands) <= 1 {
		return cands
	}
	idx := make([]int, nb) // block ID -> candidate index + 1, 0 for none
	for i, c := range cands {
		idx[c] = i + 1
	}
	parent := make([]int, len(cands))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	link := func(s side) {
		for i := range s.set.Paths {
			p := &s.set.Paths[i]
			prev := -1
			for _, b := range p.Blocks {
				if j := idx[b] - 1; j >= 0 {
					if prev >= 0 {
						union(prev, j)
					}
					prev = j
				}
			}
		}
	}
	link(tk)
	link(nt)

	// Per-group winner by joint first-merge probability within the group.
	groups := make([][]int, len(cands)) // indexed by root
	for i, c := range cands {
		root := find(i)
		groups[root] = append(groups[root], c)
	}
	var out []int
	for _, members := range groups {
		switch len(members) {
		case 0:
			continue
		case 1:
			out = append(out, members[0])
			continue
		}
		tkFR := tk.firstReach(nb, members)
		ntFR := nt.firstReach(nb, members)
		best, bestP := members[0], -1.0
		for _, m := range members {
			if pm := tkFR[m] * ntFR[m]; pm > bestP {
				best, bestP = m, pm
			}
		}
		out = append(out, best)
	}
	sort.Ints(out)
	return out
}
