package pipeline

import (
	"slices"
	"strings"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/emu"
	"dmp/internal/isa"
)

// straightProg returns a program that consumes every input value into an
// accumulator: a predictable instruction count for boundary tests.
func straightProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Func("main")
	b.Label("loop")
	b.InAvail(1)
	b.Beqz(1, "done")
	b.In(2)
	b.ALUI(isa.OpAdd, 3, 3, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Out(3)
	b.Halt()
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestTraceReaderPeekNextDone(t *testing.T) {
	p := straightProg(t)
	tr := newTraceReader(emu.New(p, constBits(1, 4), 0), 0)

	if tr.Done() {
		t.Fatal("Done before first entry")
	}
	a, ok := tr.Peek()
	if !ok {
		t.Fatal("Peek failed on fresh reader")
	}
	// Peek must not consume: a second Peek and the following Next see the
	// same entry, and Count only moves on Next.
	if b, ok := tr.Peek(); !ok || b != a {
		t.Errorf("second Peek = (%+v, %v), want same entry", b, ok)
	}
	if tr.Count() != 0 {
		t.Errorf("Count after Peek = %d, want 0", tr.Count())
	}
	c, ok := tr.Next()
	if !ok || c != a {
		t.Errorf("Next = (%+v, %v), want the peeked entry", c, ok)
	}
	if tr.Count() != 1 {
		t.Errorf("Count after Next = %d, want 1", tr.Count())
	}

	// Drain; the reader must end cleanly exactly once.
	n := tr.Count()
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n = tr.Count()
	}
	if !tr.Done() || tr.Err() != nil {
		t.Errorf("after drain: Done=%v Err=%v", tr.Done(), tr.Err())
	}
	if _, ok := tr.Peek(); ok {
		t.Error("Peek succeeded after exhaustion")
	}
	if n == 0 {
		t.Error("no entries consumed")
	}
}

func TestTraceReaderMaxInstsBoundary(t *testing.T) {
	p := straightProg(t)
	// Unbounded length for this input.
	full := newTraceReader(emu.New(p, constBits(1, 50), 0), 0)
	var total uint64
	for {
		if _, ok := full.Next(); !ok {
			break
		}
		total++
	}
	if total < 10 {
		t.Fatalf("test program too short: %d entries", total)
	}

	max := total / 2
	tr := newTraceReader(emu.New(p, constBits(1, 50), 0), max)
	var got uint64
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		got++
	}
	if got != max {
		t.Errorf("consumed %d entries with maxInsts=%d", got, max)
	}
	if !tr.Done() || tr.Err() != nil {
		t.Errorf("after cap: Done=%v Err=%v", tr.Done(), tr.Err())
	}
	// The cap is checked before stepping, so a capped reader must never
	// over-consume even when polled again.
	if _, ok := tr.Next(); ok || tr.Count() != max {
		t.Errorf("reader moved past cap: count=%d", tr.Count())
	}
}

// A faulting program must surface the emulator error through Sim.Run as a
// functional-execution error, not hang or silently truncate the run.
func TestRunSurfacesEmulatorFault(t *testing.T) {
	b := isa.NewBuilder()
	b.Func("main")
	b.ALUI(isa.OpAdd, 3, 3, 1)
	b.Ld(1, 0, 1<<40) // load far out of the memory range
	b.Halt()
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	for _, dmp := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DMP = dmp
		_, err := Run(p, nil, cfg)
		if err == nil {
			t.Fatalf("dmp=%v: no error from faulting program", dmp)
		}
		if !strings.Contains(err.Error(), "functional execution") ||
			!strings.Contains(err.Error(), "out of range") {
			t.Errorf("dmp=%v: error = %v, want functional-execution wrap of the emu fault", dmp, err)
		}
	}
}

func TestRunMaxInstsRetiresExactly(t *testing.T) {
	p := straightProg(t)
	cfg := DefaultConfig()
	cfg.MaxInsts = 40
	st, err := Run(p, constBits(1, 100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired != 40 {
		t.Errorf("Retired = %d, want exactly MaxInsts=40", st.Retired)
	}
}

// hookLog records block-executor events per kind: extents flattened to
// retired pcs, and one [3]int per load, store, branch, call, return or jump.
type hookLog struct {
	pcs    []int
	events map[string][][3]int
}

func (l *hookLog) hooks() *emu.BlockHooks {
	l.events = map[string][][3]int{}
	add := func(kind string, a, b, c int) { l.events[kind] = append(l.events[kind], [3]int{a, b, c}) }
	return &emu.BlockHooks{
		Block: func(start, end int) {
			for pc := start; pc <= end; pc++ {
				l.pcs = append(l.pcs, pc)
			}
		},
		Load:  func(pc int, addr int64) { add("load", pc, int(addr), 0) },
		Store: func(pc int, addr int64) { add("store", pc, int(addr), 0) },
		Branch: func(pc int, taken bool, target int) {
			tk := 0
			if taken {
				tk = 1
			}
			add("branch", pc, tk, target)
		},
		Call: func(pc, next int) { add("call", pc, next, 0) },
		Ret:  func(pc int) { add("ret", pc, 0, 0) },
		Jump: func(pc, next int) { add("jump", pc, next, 0) },
	}
}

// TestReplayMatchesBlockExecutor pins the per-entry adapter Warm.Replay
// warms a recorded interval window with: replaying step-batched trace
// entries through a hook set must report, kind by kind, exactly the events
// emu.RunBlocks reports over the same instructions.
func TestReplayMatchesBlockExecutor(t *testing.T) {
	const n = 100_000
	for _, name := range []string{"li", "vortex"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		input := b.Input(bench.RunInput, 1)

		var want hookLog
		if _, err := emu.New(prog, input, 0).RunBlocks(n, want.hooks()); err != nil {
			t.Fatalf("%s: RunBlocks: %v", name, err)
		}

		var got hookLog
		h := got.hooks()
		m := emu.New(prog, input, 0)
		recs := m.Predecoded().Recs
		buf := make([]emu.Trace, traceBatchSize)
		for done := 0; done < n; {
			k, err := m.StepBatch(buf[:min(len(buf), n-done)])
			if err != nil {
				t.Fatalf("%s: StepBatch: %v", name, err)
			}
			for i := range buf[:k] {
				replay(h, &recs[buf[i].PC], &buf[i])
			}
			done += k
		}

		if !slices.Equal(got.pcs, want.pcs) {
			t.Fatalf("%s: replayed extents cover %d pcs, executor %d, or differ in order", name, len(got.pcs), len(want.pcs))
		}
		for _, kind := range []string{"load", "store", "branch", "call", "ret", "jump"} {
			if len(want.events[kind]) == 0 {
				t.Fatalf("%s: executor reported no %s events; pick a program that has them", name, kind)
			}
			if !slices.Equal(got.events[kind], want.events[kind]) {
				t.Fatalf("%s: replayed %s events differ from the executor's (%d vs %d)",
					name, kind, len(got.events[kind]), len(want.events[kind]))
			}
		}
	}
}
