package core

import (
	"cmp"
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
	hs := hammocksOf(prog, prof, p)
	for _, fa := range cfg.Shared(prog).Funcs {
		if fa.Err != nil {
			return nil, fmt.Errorf("core: %s: %w", fa.Fn.Name, fa.Err)
		}
		g := fa.Graph
		for _, brPC := range g.CondBranches() {
			if prof.BranchExec(brPC) < p.MinBranchExec {
				continue
			}
			if p.TwoD != nil && !p.TwoD.PossiblyMispredicted(brPC, cmp.Or(p.TwoDMinRate, 0.02)) {
				res.Stats.Rejected2D++
				continue
			}
			res.Stats.CandidatesConsidered++
			if l, exitTaken := loopBranchOf(g, fa.Loops, brPC); l != nil {
				if p.EnableLoops {
					selectLoop(res, g, prof, l, brPC, exitTaken, p)
				}
				continue
			}
			selectHammock(res, g, prof, brPC, hs.get(g, fa.PDom, prof, brPC), p)
		}
	}
	return checkResult(prog, res)
}

// checkResult runs the static verifier's annotation-legality pass over a
// selection result before handing it to callers: an illegal annotation set
// is a selection bug and must never reach the simulator.
func checkResult(prog *isa.Program, res *Result) (*Result, error) {
	if err := verify.CheckAnnots(prog.WithAnnots(res.Annots), "select"); err != nil {
		return nil, fmt.Errorf("core: selection produced an illegal annotation set: %w", err)
	}
	return res, nil
}

// loopBranchOf returns the innermost natural loop for which brPC is a loop
// exit branch with its other direction staying in the loop — the paper's
// loop CFG type (Figure 3d): one direction iterates, the other leaves.
// Successor order is [fallthrough, taken], so the taken direction leaves
// when the fallthrough stays in (exitTaken).
func loopBranchOf(g *cfg.Graph, loops []*cfg.Loop, brPC int) (l *cfg.Loop, exitTaken bool) {
	if l = cfg.InnermostLoopWithExit(loops, brPC); l == nil {
		return nil, false
	}
	blk := g.BlockAt(brPC)
	ntIn := blk.Succs[0] != g.ExitID && l.Contains(blk.Succs[0])
	tkIn := blk.Succs[1] != g.ExitID && l.Contains(blk.Succs[1])
	if ntIn == tkIn {
		return nil, false
	}
	return l, ntIn
}

// selectLoop applies the Section 5.2 heuristics to a loop exit branch.
func selectLoop(res *Result, g *cfg.Graph, prof *profile.Profile, l *cfg.Loop, brPC int, exitTaken bool, p Params) {
	if l.NumInsts(g) > p.StaticLoopSize {
		res.Stats.RejectedByThreshold++
		return
	}
	ls := prof.LoopProfile(g, l)
	if ls.AvgTripInsts > p.DynamicLoopSize || ls.AvgIters > p.LoopIter {
		res.Stats.RejectedByThreshold++
		return
	}
	res.Annots[brPC] = &isa.DivergeInfo{
		Loop:          true,
		LoopHead:      g.Blocks[l.Header].Start,
		LoopExitTaken: exitTaken,
	}
	res.Stats.Loop++
}

// selectHammock applies a Params' thresholds, the short-hammock and
// return-CFM extensions and the cost model to a branch's analysis.
func selectHammock(res *Result, g *cfg.Graph, prof *profile.Profile, brPC int, h *hammock, p Params) {
	if h == nil {
		return
	}

	// Short-hammock heuristic (3.4): always predicate, keep only the short
	// CFM.
	if p.EnableShort && len(h.cands) > 0 &&
		h.tk[0].longest <= p.ShortMaxInsts && h.nt[0].longest <= p.ShortMaxInsts &&
		h.mergeP[0] >= p.ShortMinMergeProb && prof.MispRate(brPC) >= p.ShortMinMispRate {
		res.Annots[brPC] = &isa.DivergeInfo{
			Short: true,
			CFMs:  []isa.CFM{{Kind: isa.CFMAddr, Addr: g.Blocks[h.cands[0]].Start, MergeProb: h.mergeP[0]}},
		}
		res.Stats.Short++
		bumpType(res, h)
		return
	}

	// Threshold filtering (heuristic mode). The candidates are sorted by
	// descending merge probability, so those that pass form a prefix.
	n := len(h.cands)
	if !p.UseCostModel {
		n = 0
		for n < len(h.cands) && h.mergeP[n] >= p.MinMergeProb {
			n++
		}
	}

	// Return CFM (3.5): both sides leave through returns.
	retMerge := 0.0
	if p.EnableRetCFM && n == 0 && (p.UseCostModel || h.retMerge >= p.MinMergeProb) {
		retMerge = h.retMerge
	}
	if n == 0 && retMerge == 0 {
		res.Stats.RejectedByThreshold++
		return
	}

	// Cost-benefit analysis (Section 4).
	if p.UseCostModel && dpredCost(h.overhead(retMerge, prof.TakenProb(brPC), p), p) >= 0 {
		res.Stats.RejectedByCost++
		return
	}

	annot := &isa.DivergeInfo{}
	for i, c := range h.cands[:n] {
		annot.CFMs = append(annot.CFMs, isa.CFM{Kind: isa.CFMAddr, Addr: g.Blocks[c].Start, MergeProb: h.mergeP[i]})
	}
	if n == 0 {
		annot.CFMs = append(annot.CFMs, isa.CFM{Kind: isa.CFMReturn, MergeProb: retMerge})
		res.Stats.RetCFM++
	}
	res.Annots[brPC] = annot
	bumpType(res, h)
}

func clamp01(p float64) float64 { return min(max(p, 0), 1) }

func bumpType(res *Result, h *hammock) {
	switch {
	case !h.exact:
		res.Stats.Freq++
	case h.nested:
		res.Stats.Nested++
	default:
		res.Stats.Simple++
	}
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
		if len(members) <= 1 {
			out = append(out, members...)
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
