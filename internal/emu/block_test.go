package emu_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// blockEvents collects RunBlocks hook events into per-kind streams; each
// stream must independently match the classification of a reference trace
// (per-kind streams sidestep the deliberate Block-vs-Load interleaving
// difference: RunBlocks reports a straight-line extent after its loads).
type blockEvents struct {
	pcs      []int      // flattened Block extents, in retirement order
	loads    [][2]int64 // pc, address
	stores   [][2]int64 // pc, address
	branches [][3]int   // pc, taken (0/1), taken-target
	calls    [][2]int   // pc, target
	rets     []int
	jumps    [][2]int // pc, target
}

func (ev *blockEvents) hooks() *emu.BlockHooks {
	return &emu.BlockHooks{
		Block: func(start, end int) {
			for pc := start; pc <= end; pc++ {
				ev.pcs = append(ev.pcs, pc)
			}
		},
		Load:  func(pc int, addr int64) { ev.loads = append(ev.loads, [2]int64{int64(pc), addr}) },
		Store: func(pc int, addr int64) { ev.stores = append(ev.stores, [2]int64{int64(pc), addr}) },
		Branch: func(pc int, taken bool, target int) {
			tk := 0
			if taken {
				tk = 1
			}
			ev.branches = append(ev.branches, [3]int{pc, tk, target})
		},
		Call: func(pc, next int) { ev.calls = append(ev.calls, [2]int{pc, next}) },
		Ret:  func(pc int) { ev.rets = append(ev.rets, pc) },
		Jump: func(pc, next int) { ev.jumps = append(ev.jumps, [2]int{pc, next}) },
	}
}

// classify folds one reference trace entry into the expected event streams,
// applying the same event model RunBlocks implements: every retired pc, loads
// by latency class, stores and control flow by predecode kind (halts retire
// but carry no control-flow event).
func (ev *blockEvents) classify(recs []predecode.Rec, e *emu.Trace) {
	ev.pcs = append(ev.pcs, e.PC)
	rec := &recs[e.PC]
	switch {
	case rec.IsCondBranch():
		tk := 0
		if e.Taken {
			tk = 1
		}
		ev.branches = append(ev.branches, [3]int{e.PC, tk, int(rec.Target)})
	case rec.Kind == predecode.KCall || rec.Kind == predecode.KCallR:
		ev.calls = append(ev.calls, [2]int{e.PC, e.NextPC})
	case rec.Kind == predecode.KRet:
		ev.rets = append(ev.rets, e.PC)
	case rec.Kind == predecode.KJmp || rec.Kind == predecode.KJr:
		ev.jumps = append(ev.jumps, [2]int{e.PC, e.NextPC})
	case rec.Kind == predecode.KHalt:
	case rec.Lat == predecode.LatLoad:
		ev.loads = append(ev.loads, [2]int64{int64(e.PC), e.Addr})
	case rec.Kind == predecode.KSt:
		ev.stores = append(ev.stores, [2]int64{int64(e.PC), e.Addr})
	}
}

func (ev *blockEvents) check(t *testing.T, tag string, want *blockEvents) {
	t.Helper()
	checkInts(t, tag+"/pcs", ev.pcs, want.pcs)
	checkInts(t, tag+"/loads", ev.loads, want.loads)
	checkInts(t, tag+"/stores", ev.stores, want.stores)
	checkInts(t, tag+"/branches", ev.branches, want.branches)
	checkInts(t, tag+"/calls", ev.calls, want.calls)
	checkInts(t, tag+"/rets", ev.rets, want.rets)
	checkInts(t, tag+"/jumps", ev.jumps, want.jumps)
}

func checkInts[T comparable](t *testing.T, tag string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d: got %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// refSteps steps m with the reference interpreter up to n times (n == 0:
// until it halts or faults), folding each retired entry into ev. It returns
// the number retired and the fault, if any; a halt is not a fault.
func refSteps(m *emu.Machine, n uint64, ev *blockEvents) (uint64, error) {
	recs := m.Predecoded().Recs
	var k uint64
	for n == 0 || k < n {
		tr, err := m.StepRef()
		if errors.Is(err, emu.ErrHalted) {
			return k, nil
		}
		if err != nil {
			return k, err
		}
		ev.classify(recs, &tr)
		k++
	}
	return k, nil
}

// diffRunBlocks runs prog on the block executor and on the reference
// interpreter and insists on the same retired count, the same fault, the
// same per-kind event streams and the same final state. The executor is
// called with successive budgets from next (0: unlimited) until limit
// instructions have retired (limit == 0: until it halts or faults); a
// second executor run with no hooks and the same budgets must end in the
// same state.
func diffRunBlocks(t *testing.T, tag string, prog *isa.Program, input []int64, limit uint64, next func() uint64) {
	t.Helper()
	fast := emu.New(prog, input, 0)
	plain := emu.New(prog, input, 0)
	ref := emu.New(prog, input, 0)
	var got, want blockEvents
	var n uint64
	var ferr error
	for (limit == 0 || n < limit) && !fast.Halted() {
		b := next()
		if limit > 0 && (b == 0 || b > limit-n) {
			b = limit - n
		}
		k, err := fast.RunBlocks(b, got.hooks())
		// The budget is exact: a call stops short of it only at a halt or
		// a fault, and never retires past it.
		if (b > 0 && k > b) || (k != b && err == nil && !fast.Halted()) {
			t.Fatalf("%s: budget %d: retired %d (err %v, halted %v)", tag, b, k, err, fast.Halted())
		}
		pk, perr := plain.RunBlocks(b, nil)
		if pk != k || !errsEqual(perr, err) {
			t.Fatalf("%s: budget %d: hooked run (%d, %v), plain run (%d, %v)", tag, b, k, err, pk, perr)
		}
		n += k
		if err != nil {
			ferr = err
			break
		}
	}
	// A fault is the instruction after the last retired one.
	refLimit := n
	if ferr != nil {
		refLimit++
	}
	rn, rerr := refSteps(ref, refLimit, &want)
	if rn != n || !errsEqual(ferr, rerr) {
		t.Fatalf("%s: RunBlocks (%d, %v), reference (%d, %v)", tag, n, ferr, rn, rerr)
	}
	got.check(t, tag, &want)
	diffState(t, tag, fast, ref)
	diffState(t, tag+"/plain", plain, ref)
	if fast.Halted() {
		if _, err := fast.RunBlocks(1, got.hooks()); !errors.Is(err, emu.ErrHalted) {
			t.Fatalf("%s: RunBlocks after halt: %v, want ErrHalted", tag, err)
		}
	}
}

func fixed(b uint64) func() uint64 { return func() uint64 { return b } }

// TestRunBlocksLimitsMatchStepRef pins the block executor to the reference
// interpreter over corpus programs, in one call per limit: limits that cut
// straight-line runs mid-way and a run to halt (these programs retire about
// a million instructions; the 4M cap makes a broken executor fail instead
// of spinning).
func TestRunBlocksLimitsMatchStepRef(t *testing.T) {
	for _, name := range []string{"compress", "mcf", "gcc", "li"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		input := b.Input(bench.RunInput, 1)
		for _, lim := range []uint64{1, 7, 997, 123_457, 1 << 22} {
			diffRunBlocks(t, fmt.Sprintf("%s/lim=%d", name, lim), prog, input, lim, fixed(lim))
		}
	}
}

// TestRunBlocksCtxMatchesRunBlocks checks that the chunked, cancellable
// run retires what one RunBlocks call with the same budget retires and
// ends in the same state: capped inside one chunk, run to a halt, and
// capped across chunks of a spinning program. A cancelled context stops it
// before the first chunk.
func TestRunBlocksCtxMatchesRunBlocks(t *testing.T) {
	b := bench.ByName("mcf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.RunInput, 1)
	sb := isa.NewBuilder()
	sb.Func("main")
	sb.Label("spin")
	sb.ALUI(isa.OpAdd, 1, 1, 1)
	sb.Jmp("spin")
	spin, err := sb.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	for _, tc := range []struct {
		name  string
		prog  *isa.Program
		input []int64
		max   uint64
	}{
		{"mcf/cap", prog, input, 123_457},
		{"mcf/halt", prog, input, 0},
		{"spin/cap", spin, nil, 10_000_001},
	} {
		m := emu.New(tc.prog, tc.input, 0)
		k, err := m.RunBlocksCtx(context.Background(), tc.max, nil)
		ref := emu.New(tc.prog, tc.input, 0)
		rk, rerr := ref.RunBlocks(tc.max, nil)
		if k != rk || !errsEqual(err, rerr) {
			t.Fatalf("%s: RunBlocksCtx (%d, %v), RunBlocks (%d, %v)", tc.name, k, err, rk, rerr)
		}
		diffState(t, tc.name, m, ref)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := emu.New(spin, nil, 0)
	if k, err := m.RunBlocksCtx(ctx, 0, nil); k != 0 || !errors.Is(err, context.Canceled) || m.Retired != 0 {
		t.Fatalf("cancelled: (%d, %v), retired %d; want (0, context.Canceled), 0", k, err, m.Retired)
	}
}

// TestRunBlocksMatchesReference drives the block executor with adversarial
// per-call budgets — one instruction, a few, a cache-line's worth, and a
// cycling mix — so runs are cut at every offset, and checks every event
// against the reference interpreter.
func TestRunBlocksMatchesReference(t *testing.T) {
	b := bench.ByName("twolf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.TrainInput, 1)
	for _, budget := range []uint64{1, 2, 5, 64} {
		diffRunBlocks(t, fmt.Sprintf("budget %d", budget), prog, input, 300_000, fixed(budget))
	}
	mix := []uint64{3, 1, 17, 2, 250, 1, 1, 9}
	i := 0
	diffRunBlocks(t, "budget mix", prog, input, 300_000, func() uint64 {
		i++
		return mix[i%len(mix)]
	})
}

// TestRunBlocksEventsMatchReference checks the hook event streams of long
// runs entry for entry against the reference trace: extents flatten to the
// exact retired-pc sequence, and the load / branch / call / ret / jump
// streams match in order and payload.
func TestRunBlocksEventsMatchReference(t *testing.T) {
	for _, name := range []string{"compress", "mcf", "vortex"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		diffRunBlocks(t, name, prog, b.Input(bench.RunInput, 1), 200_000, fixed(0))
	}
}

// TestRunBlocksFaultsMatchStepRef checks the fault paths inside and at the
// end of a straight-line run: an out-of-range load or store applies no
// event and the PC parks on it; a wild indirect jump ending a run is not
// retired and reports no control-flow event.
func TestRunBlocksFaultsMatchStepRef(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *isa.Builder)
	}{
		{"load", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, 1<<40)
			b.MovI(2, 7)
			b.Ld(3, 1, 5)
			b.Halt()
		}},
		{"store", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, -3)
			b.St(1, 0, 1)
			b.Halt()
		}},
		{"wild-jr", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, 1_000_000)
			b.Emit(isa.Inst{Op: isa.OpJr, Rs1: 1})
			b.Halt()
		}},
	}
	for _, tc := range cases {
		bld := isa.NewBuilder()
		tc.build(bld)
		prog, err := bld.Link()
		if err != nil {
			t.Fatalf("%s: link: %v", tc.name, err)
		}
		m := emu.New(prog, nil, 0)
		if _, err := m.RunBlocks(0, nil); err == nil {
			t.Fatalf("%s: RunBlocks did not fault", tc.name)
		}
		for _, budget := range []uint64{0, 1} {
			diffRunBlocks(t, fmt.Sprintf("%s/budget=%d", tc.name, budget), prog, nil, 0, fixed(budget))
		}
	}
}
