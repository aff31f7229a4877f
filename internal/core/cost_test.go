package core

// Boundary tests for the Section 4 cost model: Eq. 13's useless
// instructions and the hammock overhead at the takenProb extremes, an
// empty CFM candidate list, and merge-probability clamping at both edges.

import (
	"math"
	"testing"

	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// hammockAnalysis builds the canonical input-driven hammock, profiles it,
// and returns its analysis under p's scope, with the merge block first
// among its candidates. Arm lengths are asymmetric (taken arm 3 ALUs,
// not-taken arm 5) so the two sides are distinguishable in the accounting.
func hammockAnalysis(t *testing.T, p Params) *hammock {
	t.Helper()
	prog, brPC, _ := asymmetricHammock(t)
	prof := collect(t, prog, randBits(7, 400))
	g, err := cfg.Build(prog, prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	h := analyseHammock(g, cfg.PostDominators(g), prof, brPC, hammocksOf(prog, prof, p).key)
	if h == nil || !h.exact {
		t.Fatalf("hammock branch %d: no exact analysis", brPC)
	}
	return h
}

// withMergeP returns a copy of h whose candidates are all h's first, with
// the given merge probabilities; no probabilities leaves no candidates.
func withMergeP(h *hammock, ps ...float64) *hammock {
	c := &hammock{mergeP: ps}
	for range ps {
		c.cands = append(c.cands, h.cands[0])
		c.tk, c.nt = append(c.tk, h.tk[0]), append(c.nt, h.nt[0])
	}
	c.tk, c.nt = append(c.tk, h.tk[len(h.cands)]), append(c.nt, h.nt[len(h.cands)])
	return c
}

func asymmetricHammock(t *testing.T) (prog *isa.Program, brPC, mergePC int) {
	t.Helper()
	p := mustLink(t, func(b *isa.Builder) {
		b.Func("main")
		b.Label("loop")
		b.InAvail(1)
		b.Beqz(1, "done")
		b.In(2)
		brPC = b.Beqz(2, "else")
		for i := 0; i < 3; i++ {
			b.ALUI(isa.OpAdd, 3, 3, 1)
		}
		b.Jmp("merge")
		b.Label("else")
		for i := 0; i < 5; i++ {
			b.ALUI(isa.OpSub, 3, 3, 1)
		}
		b.Label("merge")
		mergePC = b.PC()
		b.ALUI(isa.OpAdd, 4, 4, 1)
		b.Jmp("loop")
		b.Label("done")
		b.Out(3)
		b.Halt()
	})
	return p, brPC, mergePC
}

func TestUselessInstsTakenProbExtremes(t *testing.T) {
	for _, method := range []OverheadMethod{LongestPath, EdgeWeighted} {
		h := hammockAnalysis(t, CostParams(method))
		nT, nNT := h.tk[0].expected, h.nt[0].expected
		if method == LongestPath {
			nT, nNT = float64(h.tk[0].longest), float64(h.nt[0].longest)
		}
		if nT <= 0 || nNT <= 0 {
			t.Fatalf("method %v: degenerate side sizes nT=%v nNT=%v", method, nT, nNT)
		}
		if nT == nNT {
			t.Fatalf("method %v: arms should be asymmetric, both %v", method, nT)
		}
		// takenProb 1: every fetched not-taken instruction is useless,
		// every taken one useful — and symmetrically for takenProb 0.
		if got := h.useless(0, 1, method); math.Abs(got-nNT) > 1e-9 {
			t.Errorf("method %v: useless(takenProb=1) = %v, want nNT %v", method, got, nNT)
		}
		if got := h.useless(0, 0, method); math.Abs(got-nT) > 1e-9 {
			t.Errorf("method %v: useless(takenProb=0) = %v, want nT %v", method, got, nT)
		}
		// Interior probabilities stay between the extremes and non-negative.
		mid := h.useless(0, 0.5, method)
		if mid < 0 || mid > nT+nNT {
			t.Errorf("method %v: useless(0.5) = %v out of [0, %v]", method, mid, nT+nNT)
		}
	}
}

func TestHammockOverheadEmptyCandidates(t *testing.T) {
	p := CostParams(EdgeWeighted)
	h := withMergeP(hammockAnalysis(t, p))
	// No CFM candidates and no return CFM: nothing ever merges, so the
	// overhead degenerates to the non-merging penalty of half the branch
	// resolution time (Eq. 16 with pm = 0).
	got := h.overhead(0, 0.5, p)
	want := p.MispPenalty / 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("overhead(no cands) = %v, want resolution-half %v", got, want)
	}
}

func TestHammockOverheadMergeProbClamping(t *testing.T) {
	p := CostParams(EdgeWeighted)
	h := hammockAnalysis(t, p)

	// Certain merge (pm = 1): the (1-pm) resolution penalty vanishes and
	// the overhead is exactly the useless instructions over fetch width.
	useless := h.useless(0, 0.5, p.Method)
	got := withMergeP(h, 1).overhead(0, 0.5, p)
	if want := useless / p.FetchWidth; math.Abs(got-want) > 1e-9 {
		t.Errorf("overhead(pm=1) = %v, want %v", got, want)
	}

	// Aggregate merge probability above 1 (two candidates at 0.7 each, plus
	// a return CFM) must clamp to 1 rather than produce a negative
	// resolution term.
	two := withMergeP(h, 0.7, 0.7)
	overP := two.overhead(0.5, 0.5, p)
	sum := useless*0.7*2 + two.useless(2, 0.5, p.Method)*0.5
	if want := sum / p.FetchWidth; math.Abs(overP-want) > 1e-9 {
		t.Errorf("overhead(pm>1) = %v, want clamped %v", overP, want)
	}

	// Zero merge probability: only the resolution penalty remains.
	got0 := withMergeP(h, 0).overhead(0, 0.5, p)
	if want := p.MispPenalty / 2; math.Abs(got0-want) > 1e-9 {
		t.Errorf("overhead(pm=0) = %v, want %v", got0, want)
	}
}

func TestClamp01Edges(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0}, {-1e-15, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1 + 1e-15, 1}, {2, 1},
	}
	for _, c := range cases {
		if got := clamp01(c.in); got != c.want {
			t.Errorf("clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDpredCostSign(t *testing.T) {
	p := CostParams(EdgeWeighted)
	// Zero overhead with any confidence accuracy is pure win: the cost is
	// the full negative misprediction-penalty expectation.
	if got, want := dpredCost(0, p), -p.MispPenalty*p.AccConf; math.Abs(got-want) > 1e-9 {
		t.Errorf("dpredCost(0) = %v, want %v", got, want)
	}
	// Overhead equal to the penalty can never be profitable.
	if got := dpredCost(p.MispPenalty, p); got < 0 {
		t.Errorf("dpredCost(penalty) = %v, want >= 0", got)
	}
}
