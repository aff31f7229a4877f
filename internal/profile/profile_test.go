package profile

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"dmp/internal/cfg"
	"dmp/internal/isa"
)

func link(t *testing.T, build func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	build(b)
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func graph(t *testing.T, p *isa.Program, name string) *cfg.Graph {
	t.Helper()
	f := p.FuncByName(name)
	if f == nil {
		t.Fatalf("no func %q", name)
	}
	g, err := cfg.Build(p, *f)
	if err != nil {
		t.Fatalf("cfg.Build: %v", err)
	}
	return g
}

// hammockProg branches on each input value: nonzero input takes the
// fallthrough arm.
func hammockProg(t *testing.T) (*isa.Program, int) {
	var br int
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.Label("loop")
		b.InAvail(1)
		b.Beqz(1, "done")
		b.In(2)
		br = b.Beqz(2, "else")
		b.ALUI(isa.OpAdd, 3, 3, 1)
		b.Jmp("merge")
		b.Label("else")
		b.ALUI(isa.OpSub, 3, 3, 1)
		b.Label("merge")
		b.Jmp("loop")
		b.Label("done")
		b.Out(3)
		b.Halt()
	})
	return p, br
}

func TestCollectEdgeCounts(t *testing.T) {
	p, br := hammockProg(t)
	// 10 inputs: 7 nonzero (not taken), 3 zero (taken).
	input := []int64{1, 1, 0, 1, 1, 0, 1, 1, 0, 1}
	prof, err := Collect(p, input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Taken[br] != 3 || prof.NotTaken[br] != 7 {
		t.Errorf("taken/nt = %d/%d, want 3/7", prof.Taken[br], prof.NotTaken[br])
	}
	if got := prof.TakenProb(br); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("TakenProb = %v", got)
	}
	if prof.BranchExec(br) != 10 {
		t.Errorf("BranchExec = %d", prof.BranchExec(br))
	}
	if prof.TotalRetired == 0 || prof.TotalRetired != sum(prof.ExecCount) {
		t.Errorf("TotalRetired = %d, sum = %d", prof.TotalRetired, sum(prof.ExecCount))
	}
}

func sum(a []uint64) uint64 {
	var s uint64
	for _, v := range a {
		s += v
	}
	return s
}

// spinProg never halts: an infinite loop with no conditional branch and no
// input dependence, the shape that could previously hang an unbounded
// profiling run forever.
func spinProg(t *testing.T) *isa.Program {
	return link(t, func(b *isa.Builder) {
		b.Func("main")
		b.Label("loop")
		b.ALUI(isa.OpAdd, 1, 1, 1)
		b.Jmp("loop")
		b.Halt() // unreachable
	})
}

func TestCollectCtxCancelInterruptsSpin(t *testing.T) {
	p := spinProg(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CollectCtx(ctx, p, nil, Options{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the profiler enter the loop
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CollectCtx = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CollectCtx did not return after cancellation")
	}
}

func TestCollectMaxInstsBoundsSpin(t *testing.T) {
	p := spinProg(t)
	prof, err := Collect(p, nil, Options{MaxInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalRetired != 10_000 {
		t.Errorf("TotalRetired = %d, want exactly MaxInsts=10000", prof.TotalRetired)
	}
}

func TestMispRateRandomVsBiased(t *testing.T) {
	p, br := hammockProg(t)
	rng := rand.New(rand.NewSource(42))
	random := make([]int64, 4000)
	for i := range random {
		random[i] = int64(rng.Intn(2))
	}
	profRand, err := Collect(p, random, Options{})
	if err != nil {
		t.Fatal(err)
	}
	biased := make([]int64, 4000)
	for i := range biased {
		biased[i] = 1
	}
	profBias, err := Collect(p, biased, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := profRand.MispRate(br); r < 0.3 {
		t.Errorf("random-input misp rate = %v, want ~0.5", r)
	}
	if r := profBias.MispRate(br); r > 0.05 {
		t.Errorf("biased-input misp rate = %v, want ~0", r)
	}
	if profRand.MPKI() <= profBias.MPKI() {
		t.Errorf("MPKI ordering wrong: rand=%v biased=%v", profRand.MPKI(), profBias.MPKI())
	}
}

func TestEdgeProb(t *testing.T) {
	p, br := hammockProg(t)
	input := []int64{1, 1, 1, 0} // 3 not-taken, 1 taken
	prof, err := Collect(p, input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph(t, p, "main")
	b := g.BlockAt(br)
	if b == nil || b.End-1 != br {
		t.Fatalf("branch block not found")
	}
	nt, tk := b.Succs[0], b.Succs[1]
	if got := prof.EdgeProb(g, b.ID, tk); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("P(taken) = %v, want 0.25", got)
	}
	if got := prof.EdgeProb(g, b.ID, nt); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("P(nt) = %v, want 0.75", got)
	}
	if got := prof.EdgeProb(g, b.ID, 999); got != 0 {
		t.Errorf("P(non-succ) = %v", got)
	}
	// Single-successor block: probability 1.
	for _, blk := range g.Blocks {
		if len(blk.Succs) == 1 && !g.Code[blk.End-1].IsCondBranch() {
			if got := prof.EdgeProb(g, blk.ID, blk.Succs[0]); got != 1 {
				t.Errorf("single-succ prob = %v", got)
			}
			break
		}
	}
}

func TestEdgeProbUnexecutedBranch(t *testing.T) {
	p, _ := hammockProg(t)
	prof, err := Collect(p, nil, Options{}) // no inputs: hammock never runs
	if err != nil {
		t.Fatal(err)
	}
	g := graph(t, p, "main")
	for _, blk := range g.Blocks {
		if g.Code[blk.End-1].IsCondBranch() && prof.BranchExec(blk.End-1) == 0 {
			if got := prof.EdgeProb(g, blk.ID, blk.Succs[0]); got != 0.5 {
				t.Errorf("unexecuted branch edge prob = %v, want 0.5", got)
			}
			return
		}
	}
	t.Fatal("no unexecuted branch found")
}

// parallelEdgeProg branches on each input value like hammockProg, and its
// fallthrough arm branches on the value's low bit to its own fallthrough:
// that block lists one successor twice.
func parallelEdgeProg(t *testing.T) (p *isa.Program, br, par int) {
	p = link(t, func(b *isa.Builder) {
		b.Func("main")
		b.Label("loop")
		b.InAvail(1)
		b.Beqz(1, "done")
		b.In(2)
		br = b.Beqz(2, "else")
		b.ALUI(isa.OpAnd, 4, 2, 1)
		par = b.Bnez(4, "join")
		b.Label("join")
		b.ALUI(isa.OpAdd, 3, 3, 2)
		b.Jmp("merge")
		b.Label("else")
		b.ALUI(isa.OpSub, 3, 3, 1)
		b.Label("merge")
		b.Jmp("loop")
		b.Label("done")
		b.Out(3)
		b.Halt()
	})
	return p, br, par
}

// TestEdgeProbParallelEdges checks that a branch whose target is its
// fallthrough sends all of its probability to that block, whether or not
// it ran, and that the path set through it sums to 1.
func TestEdgeProbParallelEdges(t *testing.T) {
	p, br, par := parallelEdgeProg(t)
	g := graph(t, p, "main")
	pb := g.BlockAt(par)
	if pb == nil || pb.End-1 != par || len(pb.Succs) != 2 || pb.Succs[0] != pb.Succs[1] {
		t.Fatalf("branch at %d: block %+v, want two equal successors", par, pb)
	}
	stop := cfg.IPosDom(g, cfg.PostDominators(g), br)
	for _, tc := range []struct {
		name  string
		input []int64
	}{
		{"ran", []int64{1, 2, 0, 3, 0, 4, 5, 0}},
		{"never ran", nil},
	} {
		prof, err := Collect(p, tc.input, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.input != nil && (prof.Taken[par] == 0 || prof.NotTaken[par] == 0) {
			t.Fatalf("%s: taken/nt = %d/%d, want both directions", tc.name, prof.Taken[par], prof.NotTaken[par])
		}
		if got := prof.EdgeProb(g, pb.ID, pb.Succs[0]); got != 1 {
			t.Errorf("%s: P(parallel edge) = %v, want 1", tc.name, got)
		}
		_, nt := cfg.BranchPaths(g, br, stop, prof.EdgeProb, cfg.PathLimits{MaxInsts: 100, MaxCondBrs: 10})
		if !nt.Complete || len(nt.Paths) != 1 {
			t.Fatalf("%s: not-taken side has %d paths (complete %v), want 1", tc.name, len(nt.Paths), nt.Complete)
		}
		sum := 0.0
		for _, path := range nt.Paths {
			sum += path.Prob
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: not-taken path probabilities sum to %v, want 1", tc.name, sum)
		}
		if r := nt.MergeProb(stop); math.Abs(r-1) > 1e-9 {
			t.Errorf("%s: merge probability %v, want 1", tc.name, r)
		}
	}
}

func TestMaxInstsBound(t *testing.T) {
	p, _ := hammockProg(t)
	input := make([]int64, 10000)
	prof, err := Collect(p, input, Options{MaxInsts: 500})
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalRetired > 500 {
		t.Errorf("retired %d > limit", prof.TotalRetired)
	}
}

func TestLoopProfile(t *testing.T) {
	// Inner counted loop of 5 iterations, entered 3 times.
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(4, 3) // outer counter
		b.Label("outer")
		b.Beqz(4, "done")
		b.MovI(1, 5) // inner counter
		b.Label("inner")
		b.Beqz(1, "inner_done")
		b.ALUI(isa.OpSub, 1, 1, 1)
		b.Jmp("inner")
		b.Label("inner_done")
		b.ALUI(isa.OpSub, 4, 4, 1)
		b.Jmp("outer")
		b.Label("done")
		b.Halt()
	})
	prof, err := Collect(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph(t, p, "main")
	loops := cfg.NaturalLoops(g, cfg.Dominators(g))
	if len(loops) != 2 {
		t.Fatalf("loops = %d", len(loops))
	}
	// Identify the inner loop (smaller body).
	inner := loops[0]
	if len(loops[1].Body) < len(inner.Body) {
		inner = loops[1]
	}
	s := prof.LoopProfile(g, inner)
	if s.Entries != 3 {
		t.Errorf("inner entries = %d, want 3", s.Entries)
	}
	// Header executes 6 times per entry (5 body iterations + exit check).
	if s.HeaderExecs != 18 {
		t.Errorf("header execs = %d, want 18", s.HeaderExecs)
	}
	if math.Abs(s.AvgIters-6) > 1e-9 {
		t.Errorf("avg iters = %v, want 6", s.AvgIters)
	}
	if s.AvgBodyInsts <= 0 || s.AvgTripInsts <= s.AvgBodyInsts {
		t.Errorf("body/trip insts = %v/%v", s.AvgBodyInsts, s.AvgTripInsts)
	}
}

func TestBlockCount(t *testing.T) {
	p, _ := hammockProg(t)
	prof, err := Collect(p, []int64{1, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph(t, p, "main")
	if got := prof.BlockCount(g, 0); got != 3 { // loop header: 2 inputs + final check
		t.Errorf("entry block count = %d, want 3", got)
	}
	if got := prof.BlockCount(g, -1); got != 0 {
		t.Errorf("invalid block count = %d", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	p, _ := hammockProg(t)
	prof, err := Collect(p, []int64{1, 0, 1, 1, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRetired != prof.TotalRetired {
		t.Errorf("TotalRetired = %d, want %d", got.TotalRetired, prof.TotalRetired)
	}
	if len(got.ExecCount) != len(prof.ExecCount) {
		t.Fatalf("ExecCount len mismatch")
	}
	for i := range prof.ExecCount {
		if got.ExecCount[i] != prof.ExecCount[i] {
			t.Errorf("ExecCount[%d] = %d, want %d", i, got.ExecCount[i], prof.ExecCount[i])
		}
	}
	for pc, v := range prof.Taken {
		if got.Taken[pc] != v {
			t.Errorf("Taken[%d] = %d, want %d", pc, got.Taken[pc], v)
		}
	}
	for pc, v := range prof.Mispred {
		if got.Mispred[pc] != v {
			t.Errorf("Mispred[%d] = %d, want %d", pc, got.Mispred[pc], v)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("garbage data here......."))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty accepted")
	}
}

func TestMispRateUnexecuted(t *testing.T) {
	p, br := hammockProg(t)
	prof, err := Collect(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.MispRate(br); got != 0 {
		t.Errorf("unexecuted MispRate = %v", got)
	}
	if got := prof.TakenProb(br); got != 0.5 {
		t.Errorf("unexecuted TakenProb = %v", got)
	}
}
