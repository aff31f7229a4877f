package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/isa"
)

// bigCodeProg loops forever over a body of 18,000 instructions, more than
// the 64 KB I-cache holds, cut into short blocks by 3,000 jumps whose
// addresses collide in the 4K-entry BTB: a detailed interval over it
// misses in the I-cache and the BTB, where the corpus programs' intervals
// change neither.
func bigCodeProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Func("main")
	b.Label("loop")
	for k := 0; k < 3000; k++ {
		for range 5 {
			b.ALUI(isa.OpAdd, 2, 2, 1)
		}
		b.Jmp(fmt.Sprintf("b%d", k))
		b.Label(fmt.Sprintf("b%d", k))
	}
	b.Jmp("loop")
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// TestIntervalLeavesWarmStateAlone pins what lets every configuration of a
// sweep share one warm walk: an interval run from a warm state must not
// change it. Two walks advance identically; on the first, the same interval
// runs twice, each time for a fresh core, and the two runs must measure the
// same window. The first walk's tables, history, RAS and I-cache line must
// then equal the second walk's, whose tables were lent for an interval that
// changed nothing. Between them the programs make an interval change every
// table: the predictor and confidence counters (gzip), the D-cache and L2
// (mcf), and the I-cache and BTB (bigCodeProg).
func TestIntervalLeavesWarmStateAlone(t *testing.T) {
	type tcase struct {
		name  string
		prog  *isa.Program
		input []int64
		skip  uint64
	}
	// The big-code interval starts past pc 12,288, where each jump's BTB
	// slot holds the jump 12,288 instructions before it.
	cases := []tcase{{"big code", bigCodeProg(t), nil, 13_000}}
	for _, name := range []string{"gzip", "mcf"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tcase{name, prog, b.Input(bench.RunInput, 1), 150_000})
	}
	cfg := DefaultConfig()
	const warmup, measure = 2000, 2000
	for _, tc := range cases {
		walk := func() *Warm {
			w := NewWarm(tc.prog, tc.input, cfg)
			if n, err := w.Skip(context.Background(), tc.skip, 20_000); err != nil || n != tc.skip {
				t.Fatalf("%s: Skip = %d, %v; want %d", tc.name, n, err, tc.skip)
			}
			return w
		}
		w, ref := walk(), walk()
		win, err := w.Record(warmup + measure)
		if err != nil || len(win) != warmup+measure {
			t.Fatalf("%s: Record = %d entries, %v", tc.name, len(win), err)
		}
		var got [2]IntervalResult
		for i := range got {
			if got[i], err = w.RunInterval(context.Background(), NewCore(tc.prog, cfg), win, warmup, measure); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got[0] != got[1] || !got[0].Complete || got[0].Retired != measure {
			t.Errorf("%s: two runs of one interval from one warm state: %+v and %+v", tc.name, got[0], got[1])
		}
		if _, err := ref.Record(warmup + measure); err != nil {
			t.Fatal(err)
		}
		ref.lend(cfg)
		ref.restore()
		for _, tab := range []struct {
			name     string
			got, ref any
		}{
			{"perceptron", w.warm.pred, ref.warm.pred},
			{"confidence", w.warm.conf, ref.warm.conf},
			{"BTB", w.warm.btb, ref.warm.btb},
			{"I-cache", w.warm.hier.I, ref.warm.hier.I},
			{"D-cache", w.warm.hier.D, ref.warm.hier.D},
			{"L2", w.warm.hier.L2, ref.warm.hier.L2},
		} {
			if !reflect.DeepEqual(tab.got, tab.ref) {
				t.Errorf("%s: running the interval changed the warm %s", tc.name, tab.name)
			}
		}
		if w.hist != ref.hist || w.lastLine != ref.lastLine || !reflect.DeepEqual(w.ras, ref.ras) {
			t.Errorf("%s: running the interval changed the walk's history, I-cache line or RAS", tc.name)
		}
	}
}
