package core

import (
	"slices"
	"sort"
	"sync"

	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/memo"
	"dmp/internal/profile"
)

// hammock is a branch's Alg-exact/Alg-freq analysis: what depends on the
// profile and the analysis scope but not on a Params' thresholds and cost
// terms, so selections sharing a scope enumerate its paths once. A nil
// hammock has a side without paths; with no exact CFM and Alg-freq off it
// has no candidates. It must not be modified.
type hammock struct {
	exact  bool
	nested bool // exact, with a conditional branch on some path
	// cands are the CFM candidates by descending joint first-merge
	// probability mergeP (ties keep block order). tk and nt are each side's
	// estimates for merging at each candidate, then at no block. retMerge is
	// the joint probability that both sides return.
	cands    []int
	mergeP   []float64
	tk, nt   []fetched
	retMerge float64
}

// hammockKey names one code array's analyses under one profile and one
// scope, the Params fields an analysis reads. The profile enters by a hash
// of its Taken and NotTaken counters, all an analysis reads of it, so the
// memo pins no profile.
type hammockKey struct {
	code           cfg.Key
	counters       uint64
	limits         cfg.PathLimits
	freq, noChains bool
	maxCFM         int
}

// hammocks holds one key's analyses, made as branches ask for them, and the
// counters hashed into the key, compared on every hit against collisions.
type hammocks struct {
	key             hammockKey
	taken, notTaken []uint64
	mu              sync.Mutex
	byPC            map[int]*hammock
}

// hammockMemo holds the analyses. Selections that share them run one
// program at a time (a toolchain's algorithms, a grid's cells), so a few
// entries serve them, and a stream of one-off selections, as a job server
// makes, keeps few alive: an entry takes about 5 KB for a generated program.
var hammockMemo = memo.Bounded[hammockKey, *hammocks]{Cap: 8}

// hammocksOf returns prog's analyses under prof and p's scope.
func hammocksOf(prog *isa.Program, prof *profile.Profile, p Params) *hammocks {
	h := uint64(len(prof.Taken))<<32 ^ uint64(len(prof.NotTaken))
	for _, c := range [][]uint64{prof.Taken, prof.NotTaken} {
		for _, v := range c {
			h = (h ^ v) * 1099511628211 // FNV-1a's prime, a counter at a time
		}
	}
	k := hammockKey{cfg.KeyOf(prog), h,
		cfg.PathLimits{MaxInsts: p.MaxInstr, MaxCondBrs: p.MaxCbr, MinExecProb: p.MinExecProb, CallWeight: cfg.DefaultCallWeight},
		p.EnableFreq, p.DisableChainReduction, p.MaxCFM}
	if hs, ok := hammockMemo.Load(k); ok && slices.Equal(hs.taken, prof.Taken) && slices.Equal(hs.notTaken, prof.NotTaken) {
		return hs
	}
	hs := &hammocks{key: k, taken: slices.Clone(prof.Taken), notTaken: slices.Clone(prof.NotTaken), byPC: map[int]*hammock{}}
	hammockMemo.Put(k, hs)
	return hs
}

// get returns the branch's analysis, made on first use.
func (hs *hammocks) get(g *cfg.Graph, pdom *cfg.DomTree, prof *profile.Profile, brPC int) *hammock {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	h, ok := hs.byPC[brPC]
	if !ok {
		h = analyseHammock(g, pdom, prof, brPC, hs.key)
		hs.byPC[brPC] = h
	}
	return h
}

// analyseHammock enumerates a non-loop branch's paths to its IPOSDOM, finds
// its exact CFM or (Alg-freq) its frequent common blocks, reduced by chain
// and cut to MaxCFM, and estimates each side's fetched instructions.
func analyseHammock(g *cfg.Graph, pdom *cfg.DomTree, prof *profile.Profile, brPC int, k hammockKey) *hammock {
	ipos := cfg.IPosDom(g, pdom, brPC)
	tkSet, ntSet := cfg.BranchPaths(g, brPC, ipos, prof.EdgeProb, k.limits)
	if len(tkSet.Paths) == 0 || len(ntSet.Paths) == 0 {
		return nil
	}
	tk, nt := side{tkSet, k.limits.CallWeight}, side{ntSet, k.limits.CallWeight}
	h := &hammock{exact: ipos >= 0 && tk.allMergedAt(ipos) && nt.allMergedAt(ipos)}
	switch {
	case h.exact:
		h.cands = []int{ipos}
		hasCondBr := func(p cfg.Path) bool { return p.CondBrs > 0 }
		h.nested = slices.ContainsFunc(tkSet.Paths, hasCondBr) || slices.ContainsFunc(ntSet.Paths, hasCondBr)
	case k.freq:
		h.cands = cfg.CommonBlocks(tkSet, ntSet)
		if !k.noChains {
			h.cands = reduceChains(len(g.Blocks), tk, nt, h.cands)
		}
		if len(h.cands) > k.maxCFM {
			h.cands = h.cands[:k.maxCFM]
		}
	default:
		return &hammock{}
	}

	// Joint first-merge probabilities over the final candidate set
	// (footnote 3 semantics). Clamped to [0,1]: summing path probabilities
	// can drift an ulp above 1, which the ISA annotation validator rejects.
	tkFR := tk.firstReach(len(g.Blocks), h.cands)
	ntFR := nt.firstReach(len(g.Blocks), h.cands)
	mergeP := func(id int) float64 { return clamp01(tkFR[id] * ntFR[id]) }
	sort.SliceStable(h.cands, func(i, j int) bool { return mergeP(h.cands[i]) > mergeP(h.cands[j]) })
	h.mergeP = make([]float64, len(h.cands))
	for i, c := range h.cands {
		h.mergeP[i] = mergeP(c)
	}
	h.retMerge = clamp01(tk.retProb(g) * nt.retProb(g))
	h.tk, h.nt = tk.fetchedBefore(g, h.cands), nt.fetchedBefore(g, h.cands)
	return h
}
