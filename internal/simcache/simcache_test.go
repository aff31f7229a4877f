package simcache

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dmp/internal/codegen"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

const testSrc = `
var acc = 0;
func main() {
	while (inavail()) {
		var v = in();
		if (v & 1) { acc = acc + v; } else { acc = acc - 1; }
	}
	out(acc);
}
`

func testProg(t *testing.T) *isa.Program {
	t.Helper()
	p, err := codegen.CompileSource(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testInput(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i*2654435761) % 1024
	}
	return in
}

func TestKeyStability(t *testing.T) {
	c := New("")
	p1 := testProg(t)
	p2 := testProg(t) // independent compile of the same source
	in := testInput(100)
	cfg := pipeline.DefaultConfig()
	k1 := c.KeyOf(p1, in, cfg)
	k2 := c.KeyOf(p2, in, cfg)
	if k1 != k2 {
		t.Error("independent compiles of the same source produced different keys")
	}

	annots := map[int]*isa.DivergeInfo{}
	for pc, inst := range p1.Code {
		if inst.IsCondBranch() {
			annots[pc] = &isa.DivergeInfo{CFMs: []isa.CFM{{Kind: isa.CFMAddr, Addr: pc + 1, MergeProb: 0.5}}}
			break
		}
	}
	if len(annots) == 0 {
		t.Fatal("test program has no conditional branch")
	}
	if k := c.KeyOf(p1.WithAnnots(annots), in, cfg); k == k1 {
		t.Error("annotation sidecar did not change the key")
	}
	in2 := append(append([]int64(nil), in...), 7)
	if k := c.KeyOf(p1, in2, cfg); k == k1 {
		t.Error("input tape did not change the key")
	}
	cfg2 := cfg
	cfg2.DMP = true
	if k := c.KeyOf(p1, in, cfg2); k == k1 {
		t.Error("config did not change the key")
	}
}

// entryPoint is one way into the cache's memoized-run path: exact, or on
// the default sampling configuration.
type entryPoint struct {
	name string
	// minInput is the shortest input tape a test gives it: on a shorter
	// tape the test program is too short to sample and runs exact.
	minInput int
	runCfg   func(ctx context.Context, c *Cache, p *isa.Program, in []int64, cfg pipeline.Config) (any, error)
	// counts is what one executed run adds to the metrics.
	counts func(v any) Snapshot
	// selfHits is the hits a successful call adds on its own duplicate
	// cells.
	selfHits uint64
}

var entryPoints = []entryPoint{
	{
		// A full-fidelity run: the zero (disabled) conf.
		name: "full",
		runCfg: func(ctx context.Context, c *Cache, p *isa.Program, in []int64, cfg pipeline.Config) (any, error) {
			return c.RunSampledCtx(ctx, p, in, cfg, sample.SampleConf{})
		},
		counts: func(v any) Snapshot {
			st := v.(sample.Result).Full
			return Snapshot{SimCycles: st.Cycles, SimInsts: st.Retired}
		},
	},
	{
		name:     "sampled",
		minInput: 120_000,
		runCfg: func(ctx context.Context, c *Cache, p *isa.Program, in []int64, cfg pipeline.Config) (any, error) {
			return c.RunSampledCtx(ctx, p, in, cfg, sample.DefaultConf())
		},
		counts: func(any) Snapshot { return Snapshot{Sampled: 1} },
	},
	{
		// A two-cell group whose second cell duplicates the first.
		name:     "cells",
		minInput: 120_000,
		runCfg: func(ctx context.Context, c *Cache, p *isa.Program, in []int64, cfg pipeline.Config) (any, error) {
			cell := sample.Cell{Prog: p, Cfg: cfg}
			return c.RunSampledCells(ctx, in, []sample.Cell{cell, cell}, sample.DefaultConf())
		},
		counts:   func(any) Snapshot { return Snapshot{Sampled: 1} },
		selfHits: 1,
	},
}

// run runs the entry point on the default machine configuration.
func (ep entryPoint) run(ctx context.Context, c *Cache, p *isa.Program, in []int64) (any, error) {
	return ep.runCfg(ctx, c, p, in, pipeline.DefaultConfig())
}

// input returns a test tape of at least n values.
func (ep entryPoint) input(n int) []int64 { return testInput(max(n, ep.minInput)) }

// forEachEntryPoint runs test as one subtest per entry point.
func forEachEntryPoint(t *testing.T, test func(t *testing.T, ep entryPoint)) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) { test(t, ep) })
	}
}

// checkCounts compares the run counters with what the executed runs add.
func checkCounts(t *testing.T, ep entryPoint, m Snapshot, runs ...any) {
	t.Helper()
	var want Snapshot
	for _, v := range runs {
		d := ep.counts(v)
		want.SimCycles += d.SimCycles
		want.SimInsts += d.SimInsts
		want.Sampled += d.Sampled
	}
	if m.SimCycles != want.SimCycles || m.SimInsts != want.SimInsts || m.Sampled != want.Sampled {
		t.Errorf("counted cycles %d insts %d sampled %d, want %d %d %d",
			m.SimCycles, m.SimInsts, m.Sampled, want.SimCycles, want.SimInsts, want.Sampled)
	}
}

func TestRunMemoizes(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		c := New("")
		p := testProg(t)
		in := ep.input(500)

		a, err := ep.run(context.Background(), c, p, in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ep.run(context.Background(), c, p, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("memoized result differs from first run")
		}
		m := c.Metrics()
		hits := 1 + 2*ep.selfHits
		if m.Misses != 1 || m.Hits != hits {
			t.Errorf("metrics = %+v, want 1 miss and %d hits", m, hits)
		}
		checkCounts(t, ep, m, a)
		if m.SimWall <= 0 {
			t.Error("SimWall not recorded")
		}
		if want := float64(hits) / float64(hits+1); m.HitRate() != want {
			t.Errorf("HitRate = %v, want %v", m.HitRate(), want)
		}
	})
}

// TestFailedRunNotMemoized: a run that fails without cancellation memoizes
// nothing, for one cell or many. Each request for an invalid config runs
// and returns its error, and no entry is left behind.
func TestFailedRunNotMemoized(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		c := New("")
		p := testProg(t)
		in := ep.input(500)
		cfg := pipeline.DefaultConfig()
		cfg.ROBSize = 0
		if cfg.Validate() == nil {
			t.Fatal("test config validates")
		}

		var errs [2]error
		for i := range errs {
			if _, errs[i] = ep.runCfg(context.Background(), c, p, in, cfg); errs[i] == nil {
				t.Fatalf("call %d: invalid config ran", i)
			}
			c.mu.Lock()
			n := len(c.mem)
			c.mu.Unlock()
			if n != 0 {
				t.Fatalf("call %d left %d entries, want none", i, n)
			}
		}
		if errs[0].Error() != errs[1].Error() {
			t.Errorf("errors differ: %v / %v", errs[0], errs[1])
		}
		// Nothing answered the second call: it ran, and neither run
		// counts towards throughput.
		if m := c.Metrics(); m.Hits != 0 || m.Dedups != 0 || m.DiskHits != 0 || m.Misses != 0 || m.Cancels != 0 || m.SimWall != 0 {
			t.Errorf("metrics = %+v, want no lookup answered, nothing memoized and no SimWall", m)
		}
	})
}

func TestRunDeduplicatesConcurrent(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		c := New("")
		p := testProg(t)
		in := ep.input(2000)

		const workers = 8
		var wg sync.WaitGroup
		results := make([]any, workers)
		errs := make([]error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = ep.run(context.Background(), c, p, in)
			}(i)
		}
		wg.Wait()
		for i := 0; i < workers; i++ {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(results[i], results[0]) {
				t.Errorf("worker %d saw a different result", i)
			}
		}
		m := c.Metrics()
		if m.Misses != 1 {
			t.Errorf("misses = %d, want exactly 1 execution", m.Misses)
		}
		if want := workers - 1 + workers*ep.selfHits; m.Hits+m.Dedups != want {
			t.Errorf("hits+dedups = %d, want %d", m.Hits+m.Dedups, want)
		}
		checkCounts(t, ep, m, results[0])
	})
}

func TestDiskLayer(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		dir := t.TempDir()
		p := testProg(t)
		in := ep.input(500)

		warm := New(dir)
		a, err := ep.run(context.Background(), warm, p, in)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := filepath.Glob(filepath.Join(dir, "*", "*"))
		if err != nil || len(entries) != 1 || filepath.Dir(entries[0]) != filepath.Join(dir, diskNS) {
			t.Fatalf("cache dir entries = %v (err %v), want 1 in %s", entries, err, diskNS)
		}

		cold := New(dir)
		b, err := ep.run(context.Background(), cold, p, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("disk-cached result differs from simulated result")
		}
		m := cold.Metrics()
		if m.DiskHits != 1 || m.Misses != 0 {
			t.Errorf("metrics = %+v, want pure disk hit", m)
		}
		checkCounts(t, ep, m)

		// A corrupt entry must read as a miss, not an error.
		if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		rec := New(dir)
		cres, err := ep.run(context.Background(), rec, p, in)
		if err != nil {
			t.Fatal(err)
		}
		if rm := rec.Metrics(); rm.Misses != 1 || rm.DiskHits != 0 {
			t.Errorf("corrupt entry metrics = %+v, want re-simulation", rm)
		}
		if !reflect.DeepEqual(cres, a) {
			t.Error("re-simulated result differs")
		}
	})
}

func TestNilCacheRuns(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		var c *Cache
		v, err := ep.run(context.Background(), c, testProg(t), ep.input(100))
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(v).IsZero() {
			t.Error("nil cache run produced an empty result")
		}
		if got := c.Metrics(); got != (Snapshot{}) {
			t.Errorf("nil cache metrics = %+v", got)
		}
	})
}

// TestCodeHashBounded: a stream of fresh code arrays, as a long-lived
// daemon compiles them, keeps the code-hash memo within its cap, and every
// copy keys like the original.
func TestCodeHashBounded(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(10)
	cfg := pipeline.DefaultConfig()
	want := c.KeyOf(p, in, cfg)
	for i := 0; i < c.codeHash.Cap+10; i++ {
		q := *p
		q.Code = slices.Clone(p.Code)
		if c.KeyOf(&q, in, cfg) != want {
			t.Fatalf("copy %d keyed differently", i)
		}
		if n := c.codeHash.Len(); n > c.codeHash.Cap {
			t.Fatalf("%d code hashes held, cap %d", n, c.codeHash.Cap)
		}
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := Snapshot{Hits: 6, Dedups: 1, DiskHits: 1, Misses: 2, SimWall: 2e9, SimCycles: 100e6}
	if s.Requests() != 10 {
		t.Errorf("Requests = %d", s.Requests())
	}
	if got := s.HitRate(); got != 0.8 {
		t.Errorf("HitRate = %v", got)
	}
	if got := s.CyclesPerSec(); got != 50e6 {
		t.Errorf("CyclesPerSec = %v", got)
	}
	d := s.Sub(Snapshot{Hits: 3, Misses: 1, SimWall: 1e9, SimCycles: 40e6})
	if d.Hits != 3 || d.Misses != 1 || d.SimWall != 1e9 || d.SimCycles != 60e6 {
		t.Errorf("Sub = %+v", d)
	}
	// Sampled wall time is no full-fidelity throughput.
	s.SampledWall = 1.5e9
	if got := s.CyclesPerSec(); got != 200e6 {
		t.Errorf("CyclesPerSec with 1.5s of 2s sampled = %v, want 200e6", got)
	}
	if got := (Snapshot{SimWall: 1e9, SampledWall: 1e9}).KIPS(); got != 0 {
		t.Errorf("KIPS of a wholly sampled snapshot = %v, want 0", got)
	}
	if d := s.Sub(Snapshot{SimWall: 1e9, SampledWall: 0.5e9}); d.SampledWall != 1e9 {
		t.Errorf("Sub SampledWall = %v, want 1s", d.SampledWall)
	}
	if (Snapshot{}).HitRate() != 0 || (Snapshot{}).CyclesPerSec() != 0 {
		t.Error("zero snapshot helpers must return 0")
	}
}
