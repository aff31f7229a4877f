package sample_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmp/internal/bench"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

func compileBench(t testing.TB, name string) (*isa.Program, []int64) {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("no benchmark %q", name)
	}
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return prog, b.Input(bench.RunInput, 1)
}

// tinyLoopProgram builds a program retiring roughly 3n instructions — far
// below any sensible sampling threshold.
func tinyLoopProgram(t testing.TB, n int64) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Func("main")
	b.MovI(1, n)
	b.Label("loop")
	b.ALUI(isa.OpAdd, 1, 1, -1)
	b.Bnez(1, "loop")
	b.Halt()
	prog, err := b.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return prog
}

// TestSampledCoversFull is the core accuracy contract on real workloads: the
// sampled IPC estimate's confidence interval must cover the full-fidelity
// IPC, on both a long program (streamed at the configured period) and a
// short one (re-streamed at a shrunk period).
func TestSampledCoversFull(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()
	for _, name := range []string{"gzip", "vortex"} {
		prog, input := compileBench(t, name)
		st, err := pipeline.Run(prog, input, cfg)
		if err != nil {
			t.Fatalf("%s: full run: %v", name, err)
		}
		r, err := sample.Run(context.Background(), prog, input, cfg, sc)
		if err != nil {
			t.Fatalf("%s: sampled run: %v", name, err)
		}
		if r.Exact {
			t.Fatalf("%s: fell back to exact; corpus programs must be long enough to sample", name)
		}
		if r.Intervals < sc.MinIntervals {
			t.Fatalf("%s: %d intervals, want >= %d", name, r.Intervals, sc.MinIntervals)
		}
		if r.TotalInsts != st.Retired {
			t.Fatalf("%s: TotalInsts %d != full-run retired %d", name, r.TotalInsts, st.Retired)
		}
		if r.Unbounded {
			t.Fatalf("%s: estimate unbounded with %d intervals", name, r.Intervals)
		}
		if !r.Covers(st.IPC()) {
			t.Errorf("%s: full IPC %.4f outside sampled CI %.4f ± %.4f",
				name, st.IPC(), r.IPC(), r.IPCErr)
		}
		if r.RelErr() <= 0 {
			t.Errorf("%s: RelErr %v, want > 0", name, r.RelErr())
		}
		proj := r.AsStats()
		if proj.Retired != st.Retired {
			t.Errorf("%s: AsStats retired %d != %d", name, proj.Retired, st.Retired)
		}
		if proj.Cycles != r.EstCycles {
			t.Errorf("%s: AsStats cycles %d != EstCycles %d", name, proj.Cycles, r.EstCycles)
		}
		if r.DetailedInsts == 0 || r.WarmInsts == 0 {
			t.Errorf("%s: accounting zero: detailed=%d warm=%d", name, r.DetailedInsts, r.WarmInsts)
		}
		if r.DetailedInsts+r.WarmInsts >= r.TotalInsts {
			t.Errorf("%s: detailed %d + warm %d should leave a plain-skipped remainder of %d total",
				name, r.DetailedInsts, r.WarmInsts, r.TotalInsts)
		}
	}
}

// TestSampledDeterministic pins the memoization contract: a cold run, which
// counts the program's instructions first, and a warm repeat, which reads
// the count from the memo, must produce bit-identical Results. The corpus
// seeds include placements whose last stratum's interval would overrun the
// program's end and is left out; the other cases reach the remaining
// placement outcomes: a cfg.MaxInsts cap, a program short enough that the
// period shrinks, and one too short to sample at all.
func TestSampledDeterministic(t *testing.T) {
	type tcase struct {
		name  string
		prog  *isa.Program
		input []int64
		cfg   pipeline.Config
		sc    sample.SampleConf
		check func(sample.Result) bool // the placement outcome the case must reach
	}
	var cases []tcase
	for _, name := range []string{"bzip2", "twolf", "vortex"} {
		prog, input := compileBench(t, name)
		for _, seed := range []uint64{1, 4, 5} {
			sc := sample.DefaultConf()
			sc.Seed = seed
			cases = append(cases, tcase{fmt.Sprintf("%s seed %d", name, seed), prog, input, pipeline.DefaultConfig(), sc, nil})
		}
	}
	sc := sample.DefaultConf()
	gzip, gzipIn := compileBench(t, "gzip")
	capped := pipeline.DefaultConfig()
	capped.MaxInsts = 1_000_000
	cases = append(cases,
		tcase{"gzip max-insts cap", gzip, gzipIn, capped, sc, func(r sample.Result) bool {
			return !r.Exact && r.Period == sc.Period && r.TotalInsts == capped.MaxInsts
		}},
		tcase{"shrunk period", tinyLoopProgram(t, 100_000), nil, pipeline.DefaultConfig(), sc, func(r sample.Result) bool {
			return !r.Exact && r.Period < sc.Period && r.Intervals == sc.MinIntervals
		}},
		tcase{"exact fallback", tinyLoopProgram(t, 500), nil, pipeline.DefaultConfig(), sc, func(r sample.Result) bool {
			return r.Exact
		}},
	)
	for _, tc := range cases {
		sample.ForgetCounts()
		cold, err := sample.Run(context.Background(), tc.prog, tc.input, tc.cfg, tc.sc)
		if err != nil {
			t.Fatalf("%s: cold run: %v", tc.name, err)
		}
		if tc.check != nil && !tc.check(cold) {
			t.Errorf("%s: placement outcome not reached: %+v", tc.name, cold)
		}
		warm, err := sample.Run(context.Background(), tc.prog, tc.input, tc.cfg, tc.sc)
		if err != nil {
			t.Fatalf("%s: warm run: %v", tc.name, err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%s: memoized run diverged:\n  cold %+v\n  warm %+v", tc.name, cold, warm)
		}
	}
}

// TestSampledSeedMoves checks the placement seed actually moves the sample:
// two seeds must measure different interval sets (identical estimates would
// mean the jitter is dead and systematic aliasing is back on the table).
func TestSampledSeedMoves(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog, input := compileBench(t, "twolf")
	sc := sample.DefaultConf()
	a, err := sample.Run(context.Background(), prog, input, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 99
	b, err := sample.Run(context.Background(), prog, input, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.WinCycles == b.WinCycles && a.WinMisp == b.WinMisp {
		t.Errorf("seeds 1 and 99 measured identical windows (cycles=%d misp=%d)", a.WinCycles, a.WinMisp)
	}
}

// TestExactFallbackShortProgram: a program far below MinIntervals periods
// must come back as one exact full-fidelity run, identical to pipeline.Run.
func TestExactFallbackShortProgram(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog := tinyLoopProgram(t, 500)
	st, err := pipeline.Run(prog, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sample.Run(context.Background(), prog, nil, cfg, sample.DefaultConf())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Full == nil {
		t.Fatalf("short program did not fall back to exact: %+v", r)
	}
	if r.IPCErr != 0 || r.Unbounded {
		t.Errorf("exact run should carry a zero error bar: err=%v unbounded=%v", r.IPCErr, r.Unbounded)
	}
	if got := r.AsStats(); !reflect.DeepEqual(got, st) {
		t.Errorf("exact AsStats = %+v, want full stats %+v", got, st)
	}
	if r.IPC() != st.IPC() {
		t.Errorf("exact IPC %v != full %v", r.IPC(), st.IPC())
	}
	if !r.Covers(st.IPC()) {
		t.Errorf("exact result must cover its own IPC")
	}
}

// TestDisabledConfRunsExact: a conf with Enabled unset routes to the
// full-fidelity path regardless of the other fields.
func TestDisabledConfRunsExact(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog, input := compileBench(t, "vortex")
	st, err := pipeline.Run(prog, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sample.Run(context.Background(), prog, input, cfg, sample.SampleConf{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || !reflect.DeepEqual(r.AsStats(), st) {
		t.Errorf("disabled conf: got %+v, want exact equal to full stats", r)
	}
}

// TestSampledCancellation: a cancelled context must abort the run inside the
// fast-forward, surfacing the context error rather than a result.
func TestSampledCancellation(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog, input := compileBench(t, "gzip")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sample.Run(ctx, prog, input, cfg, sample.DefaultConf())
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not wrap context.Canceled", err)
	}
}

// TestCountCancelMidCount: cancelling the counting pass over a program that
// never halts makes Run return promptly with the context error (the pass
// polls between instruction chunks).
func TestCountCancelMidCount(t *testing.T) {
	b := isa.NewBuilder()
	b.Func("main")
	b.Label("loop")
	b.ALUI(isa.OpAdd, 1, 1, 1)
	b.Jmp("loop")
	prog, err := b.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	sample.ForgetCounts()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sample.Run(ctx, prog, nil, pipeline.DefaultConfig(), sample.DefaultConf())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "sample: count") {
			t.Fatalf("err = %v, want the count pass's context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("count pass did not return within 2s of cancel")
	}
}

func TestValidate(t *testing.T) {
	base := sample.DefaultConf()
	cases := []struct {
		name    string
		mutate  func(*sample.SampleConf)
		wantErr string
	}{
		{"default ok", func(c *sample.SampleConf) {}, ""},
		{"disabled anything goes", func(c *sample.SampleConf) { *c = sample.SampleConf{Confidence: 7} }, ""},
		// A zero field of an enabled conf means the default, as in a run.
		{"zero interval", func(c *sample.SampleConf) { c.Interval = 0 }, ""},
		{"zero period", func(c *sample.SampleConf) { c.Period = 0 }, ""},
		{"only enabled", func(c *sample.SampleConf) { *c = sample.SampleConf{Enabled: true} }, ""},
		{"period too small", func(c *sample.SampleConf) { c.Period = c.Warmup + c.Interval - 1 }, "shorter than"},
		{"period below the default warmup+interval", func(c *sample.SampleConf) {
			*c = sample.SampleConf{Enabled: true, Period: 1000}
		}, "shorter than warmup+interval 4000"},
		{"confidence one", func(c *sample.SampleConf) { c.Confidence = 1 }, "confidence"},
		{"confidence negative", func(c *sample.SampleConf) { c.Confidence = -0.5 }, "confidence"},
		{"negative min intervals", func(c *sample.SampleConf) { c.MinIntervals = -1 }, "min_intervals"},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		err := c.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// A run validates the conf it normalized: a negative MinIntervals is
	// rejected, not replaced by the default.
	neg := base
	neg.MinIntervals = -1
	_, err := sample.Run(context.Background(), tinyLoopProgram(t, 500), nil, pipeline.DefaultConfig(), neg)
	if err == nil || !strings.Contains(err.Error(), "min_intervals") {
		t.Errorf("run at negative min intervals: error %v, want substring %q", err, "min_intervals")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog, input := compileBench(t, "vortex")
	r, err := sample.Run(context.Background(), prog, input, cfg, sample.DefaultConf())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample.MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sample.UnmarshalResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip diverged:\n  in  %+v\n  out %+v", r, back)
	}
	if _, err := sample.UnmarshalResult([]byte(`{"total_insts": 1, "bogus_field": 2}`)); err == nil {
		t.Error("unknown field accepted; cache entries from newer shapes must read as misses")
	}
	if sample.Schema() == "" {
		t.Error("empty schema fingerprint")
	}
}

// TestCanonicalDefaults: an implied default and its explicit spelling must
// key identically, and any changed field must change the canonical form.
func TestCanonicalDefaults(t *testing.T) {
	implied := sample.SampleConf{Enabled: true, Interval: 1000, Warmup: 1000, Period: 50_000, Seed: 1}
	explicit := implied
	explicit.Confidence = 0.95
	a := string(implied.AppendCanonical(nil))
	b := string(explicit.AppendCanonical(nil))
	if a != b {
		t.Errorf("implied and explicit defaults key differently:\n  %s\n  %s", a, b)
	}
	// An implied MinIntervals is DefaultConf's.
	explicit.MinIntervals = sample.DefaultConf().MinIntervals
	if c := string(explicit.AppendCanonical(nil)); c != a {
		t.Errorf("implied and explicit MinIntervals key differently:\n  %s\n  %s", a, c)
	}
	moved := implied
	moved.Seed = 2
	if c := string(moved.AppendCanonical(nil)); c == a {
		t.Error("seed change did not change the canonical form")
	}
}
