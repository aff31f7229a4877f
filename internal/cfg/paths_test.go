package cfg

import (
	"math"
	"testing"
	"testing/quick"

	"dmp/internal/isa"
)

// uniformProb splits probability evenly among a block's successors.
func uniformProb(g *Graph, from, to int) float64 {
	n := len(g.Succs(from))
	if n == 0 {
		return 0
	}
	return 1 / float64(n)
}

// biasedProb sends 90% of conditional-branch probability to the fallthrough
// successor and 10% to the taken successor.
func biasedProb(g *Graph, from, to int) float64 {
	succs := g.Succs(from)
	if len(succs) == 1 {
		return 1
	}
	if to == succs[0] {
		return 0.9
	}
	return 0.1
}

// freqHammock builds the paper's Figure 2 shape:
//
//	A -> B, C
//	B -> D, E
//	D -> E, F
//	C -> G, H
//	E -> H;  G -> H;  F -> exit (different path, no merge)
//	H -> halt
func freqHammock(t *testing.T) (*isa.Program, *Graph, int) {
	var brA int
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.In(1) // A
		b.In(2)
		b.In(3)
		brA = b.Beqz(1, "C")
		b.Beqz(2, "E") // B: branch to E or fall to D
		b.Beqz(3, "F") // D: branch to F or fall to E
		b.Label("E")
		b.ALUI(isa.OpAdd, 4, 4, 1) // E
		b.Jmp("H")
		b.Label("F")
		b.Out(4) // F: leaves without merging
		b.Halt()
		b.Label("C")
		b.Beqz(2, "H")             // C: branch to H or fall to G
		b.ALUI(isa.OpAdd, 4, 4, 2) // G
		b.Label("H")
		b.Out(4)
		b.Halt()
	})
	return p, mustBuild(t, p, "main"), brA
}

func limits() PathLimits {
	return PathLimits{MaxInsts: 50, MaxCondBrs: 5, MinExecProb: 0.001}
}

func TestEnumeratePathsSimpleHammock(t *testing.T) {
	_, g := simpleHammock(t)
	pdom := PostDominators(g)
	merge := IPosDom(g, pdom, 1)
	tk, nt := BranchPaths(g, 1, merge, uniformProb, limits())
	if len(tk.Paths) != 1 || len(nt.Paths) != 1 {
		t.Fatalf("paths = %d/%d, want 1/1", len(tk.Paths), len(nt.Paths))
	}
	for _, s := range []*PathSet{tk, nt} {
		p := s.Paths[0]
		if p.End != EndMerged {
			t.Errorf("path end = %v, want merged", p.End)
		}
		if p.Prob != 1 {
			t.Errorf("path prob = %v, want 1", p.Prob)
		}
		if p.Blocks[len(p.Blocks)-1] != merge {
			t.Errorf("path does not end at merge: %v", p.Blocks)
		}
	}
	// Fall-through arm is [add, jmp] (2 insts); taken arm is [sub] (1 inst).
	if nt.Paths[0].Insts != 2 {
		t.Errorf("not-taken path insts = %d, want 2", nt.Paths[0].Insts)
	}
	if tk.Paths[0].Insts != 1 {
		t.Errorf("taken path insts = %d, want 1", tk.Paths[0].Insts)
	}
	if got := tk.MergeProb(merge); got != 1 {
		t.Errorf("taken reach(merge) = %v", got)
	}
}

func TestEnumeratePathsFrequentlyHammock(t *testing.T) {
	_, g, brA := freqHammock(t)
	pdom := PostDominators(g)
	// F halts separately, so IPOSDOM of A is the virtual exit: no exact CFM.
	if got := IPosDom(g, pdom, brA); got != -1 {
		t.Fatalf("IPosDom = %d, want -1 for frequently-hammock", got)
	}
	tk, nt := BranchPaths(g, brA, -1, uniformProb, limits())
	common := CommonBlocks(tk, nt)
	if len(common) == 0 {
		t.Fatal("no common blocks found; expected H")
	}
	// H must be the top CFM candidate.
	h := common[0]
	hBlock := g.Blocks[h]
	if g.Code[hBlock.End-1].Op != isa.OpHalt {
		t.Errorf("top candidate block %d does not end at halt: %v", h, hBlock)
	}
	// On the not-taken side (B first), reach(H) = P(B->E) + P(B->D)*P(D->E)
	// = 0.5 + 0.5*0.5 = 0.75 with uniform edge probabilities.
	if got := nt.MergeProb(h); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("not-taken reach(H) = %v, want 0.75", got)
	}
	// On the taken side (C first), reach(H) = 1 (both arms merge).
	if got := tk.MergeProb(h); math.Abs(got-1) > 1e-9 {
		t.Errorf("taken reach(H) = %v, want 1", got)
	}
}

func TestEnumeratePathsRespectsMinExecProb(t *testing.T) {
	_, g, brA := freqHammock(t)
	// With a 0.2 floor and biased probabilities, the 10%-taken directions
	// are never followed.
	lim := limits()
	lim.MinExecProb = 0.2
	tk, nt := BranchPaths(g, brA, -1, biasedProb, lim)
	for _, p := range append(tk.Paths, nt.Paths...) {
		if p.Prob < 0.5 {
			t.Errorf("low-probability path explored: %+v", p)
		}
	}
	if len(nt.Paths) != 1 {
		t.Errorf("not-taken paths = %d, want 1 (only the 0.9 chain)", len(nt.Paths))
	}
}

func TestEnumeratePathsTruncation(t *testing.T) {
	// A long straight chain must be truncated by MaxInsts.
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.In(1)
		b.Beqz(1, "long")
		b.Halt()
		b.Label("long")
		for i := 0; i < 100; i++ {
			b.ALUI(isa.OpAdd, 2, 2, 1)
		}
		b.Halt()
	})
	g := mustBuild(t, p, "main")
	lim := PathLimits{MaxInsts: 20, MaxCondBrs: 5, MinExecProb: 0.001}
	tk, _ := BranchPaths(g, 1, -1, uniformProb, lim)
	if len(tk.Paths) != 1 || tk.Paths[0].End != EndTruncated {
		t.Fatalf("want one truncated path, got %+v", tk.Paths)
	}
}

func TestEnumeratePathsCondBrLimit(t *testing.T) {
	// A chain of hammocks exceeding MaxCondBrs.
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.In(1)
		b.Beqz(1, "start")
		b.Halt()
		b.Label("start")
		for i := 0; i < 8; i++ {
			b.In(2)
			b.Beqz(2, "skip"+string(rune('a'+i)))
			b.ALUI(isa.OpAdd, 3, 3, 1)
			b.Label("skip" + string(rune('a'+i)))
		}
		b.Halt()
	})
	g := mustBuild(t, p, "main")
	lim := PathLimits{MaxInsts: 1000, MaxCondBrs: 3, MinExecProb: 0.001}
	tk, _ := BranchPaths(g, 1, -1, uniformProb, lim)
	for _, pth := range tk.Paths {
		if pth.CondBrs > 4 { // limit+1 at the truncation point
			t.Errorf("path explored past branch limit: %+v", pth)
		}
	}
}

func TestEnumeratePathsLoopBounded(t *testing.T) {
	// Paths through a loop terminate via MaxInsts even though the graph is
	// cyclic.
	_, g, exitBr := loopProg(t)
	lim := PathLimits{MaxInsts: 30, MaxCondBrs: 10, MinExecProb: 0.001}
	tk, nt := BranchPaths(g, exitBr, -1, uniformProb, lim)
	if len(tk.Paths) == 0 || len(nt.Paths) == 0 {
		t.Fatal("no paths enumerated through loop")
	}
	total := 0
	for _, p := range append(tk.Paths, nt.Paths...) {
		total += len(p.Blocks)
	}
	if total == 0 {
		t.Error("empty paths")
	}
}

func TestEnumerateMaxPathsCap(t *testing.T) {
	// 12 sequential hammocks → 2^12 paths; a cap of 100 must truncate and
	// clear Complete.
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.In(1)
		b.Beqz(1, "start")
		b.Halt()
		b.Label("start")
		for i := 0; i < 12; i++ {
			b.In(2)
			b.Beqz(2, "s"+string(rune('a'+i)))
			b.ALUI(isa.OpAdd, 3, 3, 1)
			b.Label("s" + string(rune('a'+i)))
		}
		b.Halt()
	})
	g := mustBuild(t, p, "main")
	lim := PathLimits{MaxInsts: 10000, MaxCondBrs: 100, MinExecProb: 0.001, MaxPaths: 100}
	tk, _ := BranchPaths(g, 1, -1, uniformProb, lim)
	if tk.Complete {
		t.Error("Complete = true despite cap")
	}
	if len(tk.Paths) > 100 {
		t.Errorf("paths = %d, want <= 100", len(tk.Paths))
	}
}

func TestBranchPathsNonBranch(t *testing.T) {
	_, g := simpleHammock(t)
	tk, nt := BranchPaths(g, 0, -1, uniformProb, limits())
	if len(tk.Paths) != 0 || len(nt.Paths) != 0 {
		t.Error("paths enumerated from non-branch")
	}
}

// TestPathProbabilitiesSumQuick checks that for random hammock chains the
// enumerated path probabilities sum to ~1 per direction (they partition the
// outcome space when nothing is pruned).
func TestPathProbabilitiesSumQuick(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		b := isa.NewBuilder()
		b.Func("main")
		b.In(1)
		b.Beqz(1, "start")
		b.Halt()
		b.Label("start")
		for i := 0; i < n; i++ {
			b.In(2)
			b.Beqz(2, "s"+string(rune('a'+i)))
			b.ALUI(isa.OpAdd, 3, 3, 1)
			b.Label("s" + string(rune('a'+i)))
		}
		b.Halt()
		p, err := b.Link()
		if err != nil {
			return false
		}
		f := p.FuncByName("main")
		g, err := Build(p, *f)
		if err != nil {
			return false
		}
		lim := PathLimits{MaxInsts: 10000, MaxCondBrs: 100, MinExecProb: 0.0001}
		tk, _ := BranchPaths(g, 1, -1, uniformProb, lim)
		sum := 0.0
		for _, pth := range tk.Paths {
			sum += pth.Prob
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFirstIndexOf(t *testing.T) {
	p := Path{Blocks: []int{3, 1, 4, 1}}
	if got := p.FirstIndexOf(1); got != 1 {
		t.Errorf("FirstIndexOf(1) = %d", got)
	}
	if got := p.FirstIndexOf(9); got != -1 {
		t.Errorf("FirstIndexOf(9) = %d", got)
	}
}
