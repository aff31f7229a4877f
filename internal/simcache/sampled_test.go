package simcache

import (
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// TestRunSampledKeySeparation: a sampled run and a full-fidelity run of the
// same workload must occupy disjoint cache entries, different sampling
// confs must not collide with each other, and every disabled conf is the
// one full-fidelity entry.
func TestRunSampledKeySeparation(t *testing.T) {
	ctx := context.Background()
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	full, err := c.RunSampledCtx(ctx, p, in, cfg, sample.SampleConf{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSampledCtx(ctx, p, in, cfg, sc); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Misses != 2 || m.Hits != 0 {
		t.Fatalf("full + sampled of the same workload: %d misses %d hits, want 2/0", m.Misses, m.Hits)
	}

	// A disabled conf with sampling fields set is still a full-fidelity
	// request: it hits the zero conf's entry.
	off := sc
	off.Enabled = false
	r, err := c.RunSampledCtx(ctx, p, in, cfg, off)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Misses != 2 || m.Hits != 1 || !reflect.DeepEqual(r, full) {
		t.Errorf("disabled conf %+v: metrics %+v, want a hit on the zero conf's entry", off, m)
	}

	// An enabled conf on a program too short to sample runs exact, but
	// keeps its own entry: it never answers a full-fidelity request.
	short := testInput(100)
	fallback, err := c.RunSampledCtx(ctx, p, short, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !fallback.Exact || !fallback.Conf.Enabled {
		t.Fatalf("short program under %+v: %+v, want an exact fallback", sc, fallback)
	}
	before := c.Metrics()
	exact, err := c.RunSampledCtx(ctx, p, short, cfg, sample.SampleConf{})
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics().Sub(before); m.Misses != 1 || m.Hits != 0 || exact.Conf.Enabled {
		t.Errorf("full run after a fallback: metrics %+v, conf %+v; want its own miss", m, exact.Conf)
	}

	k1 := c.KeyOfSampled(p, in, cfg, sc)
	sc2 := sc
	sc2.Seed = 99
	k2 := c.KeyOfSampled(p, in, cfg, sc2)
	if k1 == k2 {
		t.Error("different seeds produced the same sampled key")
	}
	if k1 == c.KeyOfSampled(p, in, cfg, sample.SampleConf{}) {
		t.Error("sampled key collides with the full-fidelity key")
	}

	// Implied defaults and their explicit spelling are the same entry.
	sc3 := sc
	sc3.Confidence = 0 // Normalize resolves to 0.95
	sc4 := sc
	sc4.Confidence = 0.95
	if c.KeyOfSampled(p, in, cfg, sc3) != c.KeyOfSampled(p, in, cfg, sc4) {
		t.Error("canonicalization: implied and explicit defaults keyed differently")
	}
}

// TestSampledWallSplit: one exact and one sampled run through one cache
// split SimWall into its sampled part and the rest, and the throughput
// rates divide the exact run's cycles and instructions by the rest alone.
func TestSampledWallSplit(t *testing.T) {
	ctx := context.Background()
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	if _, err := c.RunSampledCtx(ctx, p, in, cfg, sample.SampleConf{}); err != nil {
		t.Fatal(err)
	}
	r, err := c.RunSampledCtx(ctx, p, in, cfg, sample.DefaultConf())
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact {
		t.Fatal("the sampled run fell back to an exact run")
	}
	m := c.Metrics()
	if !(m.SimWall > m.SampledWall && m.SampledWall > 0) {
		t.Fatalf("SimWall %v, SampledWall %v: want SimWall > SampledWall > 0", m.SimWall, m.SampledWall)
	}
	exact := (m.SimWall - m.SampledWall).Seconds()
	if got, want := m.KIPS(), float64(m.SimInsts)/1000/exact; got != want {
		t.Errorf("KIPS = %v, want %v over the exact wall", got, want)
	}
	if got, want := m.CyclesPerSec(), float64(m.SimCycles)/exact; got != want {
		t.Errorf("CyclesPerSec = %v, want %v over the exact wall", got, want)
	}
}

// TestRunSampledDisk: a fresh Cache over the same directory answers from the
// schema-versioned sampled namespace without re-simulating.
func TestRunSampledDisk(t *testing.T) {
	dir := t.TempDir()
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	c1 := New(dir)
	r1, err := c1.RunSampledCtx(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "sm-"+sample.Schema())
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("sampled disk namespace %s: %v", want, err)
	}

	c2 := New(dir)
	r2, err := c2.RunSampledCtx(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("disk round-trip changed the sampled result")
	}
	m := c2.Metrics()
	if m.DiskHits != 1 || m.Misses != 0 {
		t.Errorf("fresh cache metrics = %+v, want 1 disk hit / 0 misses", m)
	}
}

// TestSampledKeyGeneration: sampled entries written before functional
// warming replaced the chained stream (key generation v1) must not answer
// for the new estimator. An entry planted under the v1 key of a workload is
// ignored: the run misses, simulates and stores under its own key.
func TestSampledKeyGeneration(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	base := c.KeyOf(p, in, cfg)
	h := sha256.New()
	h.Write([]byte("dmp-simcache-sampled-v1\x00" + sample.Schema() + "\x00"))
	h.Write(base[:])
	h.Write(sc.AppendCanonical(nil))
	var v1 Key
	h.Sum(v1[:0])
	if v1 == c.KeyOfSampled(p, in, cfg, sc) {
		t.Fatal("the sampled key generation did not move")
	}
	stale, err := sample.MarshalResult(sample.Result{Conf: sc.Normalize(), TotalInsts: 42})
	if err != nil {
		t.Fatal(err)
	}
	c.writeDisk(v1, stale)

	r, err := c.RunSampledCtx(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalInsts == 42 {
		t.Error("a chained-stream entry answered a functional-warming run")
	}
	if m := c.Metrics(); m.DiskHits != 0 || m.Misses != 1 {
		t.Errorf("metrics = %+v, want 0 disk hits and 1 miss", m)
	}
}

// sweepCells returns n cells of p on distinct confidence thresholds, half
// of them DMP: distinct keys sharing one warm walk.
func sweepCells(p *isa.Program, n int) []sample.Cell {
	cells := make([]sample.Cell, n)
	for i := range cells {
		cfg := pipeline.DefaultConfig()
		cfg.ConfThreshold = uint8(4 + i/2)
		cfg.DMP = i%2 == 1
		cells[i] = sample.Cell{Prog: p, Cfg: cfg}
	}
	return cells
}

// TestRunSampledCells: a grouped call answers each cell exactly as
// RunSampledCtx would, memoizes each cell under its own key, runs only the
// cells that miss (a remembered cell is a hit) and serves a duplicate cell
// from the same entry.
func TestRunSampledCells(t *testing.T) {
	ctx := context.Background()
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	sc := sample.DefaultConf()
	cells := sweepCells(p, 6)
	if _, err := c.RunSampledCtx(ctx, p, in, cells[0].Cfg, sc); err != nil {
		t.Fatal(err)
	}
	got, err := c.RunSampledCells(ctx, in, append(cells, cells[3]), sc)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Misses != 6 || m.Hits != 2 {
		t.Errorf("metrics = %+v, want 6 misses (1 alone, 5 grouped) and 2 hits", m)
	}
	for i, cell := range cells {
		want, err := sample.Run(ctx, p, in, cell.Cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cell %d: grouped %+v, alone %+v", i, got[i], want)
		}
		if r, err := c.RunSampledCtx(ctx, p, in, cell.Cfg, sc); err != nil || !reflect.DeepEqual(r, want) {
			t.Errorf("cell %d: memoized %+v (%v), want %+v", i, r, err, want)
		}
	}
	if !reflect.DeepEqual(got[6], got[3]) {
		t.Error("a duplicate cell got a different result")
	}
}

// TestRunSampledCellsConcurrent: grouped calls racing over the same cells
// run each cell once; the callers that lose the race wait on the winner's
// entries and get its results.
func TestRunSampledCellsConcurrent(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	sc := sample.DefaultConf()
	cells := sweepCells(p, 6)
	got := make([][]sample.Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.RunSampledCells(context.Background(), in, cells, sc)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Errorf("caller %d got other results than caller 0", i)
		}
	}
	if m := c.Metrics(); m.Misses != uint64(len(cells)) {
		t.Errorf("%d misses, want %d: each cell runs once", m.Misses, len(cells))
	}
}

// TestRunSampledCellsCancelInWalk: cancelling a grouped run while its warm
// walk is under way returns context.Canceled and memoizes none of the
// group's cells; a retry with a live context runs them all.
func TestRunSampledCellsCancelInWalk(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(300_000)
	sc := sample.DefaultConf()
	cells := sweepCells(p, 17)
	// A first cell alone remembers the instruction count, so the group
	// goes straight from its lookups to the walk.
	if _, err := c.RunSampledCells(context.Background(), in, cells[:1], sc); err != nil {
		t.Fatal(err)
	}
	group := cells[1:]
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RunSampledCells(ctx, in, group, sc)
		done <- err
	}()
	for i := 0; ; i++ {
		c.mu.Lock()
		n := len(c.mem)
		c.mu.Unlock()
		if n == 1+len(group) {
			break
		}
		if i > 1000 {
			t.Fatal("the group never registered its in-flight entries")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled group err = %v, want context.Canceled", err)
	}
	c.mu.Lock()
	n := len(c.mem)
	c.mu.Unlock()
	if m := c.Metrics(); n != 1 || m.Misses != 1 || m.Cancels != 1 {
		t.Fatalf("after cancel: %d entries, metrics %+v; want only the first cell memoized and 1 cancel", n, m)
	}
	if _, err := c.RunSampledCells(context.Background(), in, group, sc); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Misses != uint64(len(cells)) {
		t.Errorf("retry: %d misses, want %d", m.Misses, len(cells))
	}
}

// TestCellsOverlapConcurrent: groups over the same cells in opposite orders
// race. No call waits while it holds a claim, so none deadlocks; each key
// runs once and every caller gets the same result for the same cell.
func TestCellsOverlapConcurrent(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	sc := sample.DefaultConf()
	fwd := sweepCells(p, 3)
	rev := []sample.Cell{fwd[2], fwd[1], fwd[0]}
	var got [2][]sample.Result
	var errs [2]error
	var wg sync.WaitGroup
	for i, cells := range [][]sample.Cell{fwd, rev} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.RunSampledCells(context.Background(), in, cells, sc)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for j := range fwd {
		if !reflect.DeepEqual(got[0][j], got[1][len(fwd)-1-j]) {
			t.Errorf("cell %d: the two orders got different results", j)
		}
	}
	if m := c.Metrics(); m.Misses != uint64(len(fwd)) || m.Hits+m.Dedups != uint64(len(fwd)) {
		t.Errorf("metrics = %+v, want %d misses and %[2]d hits+dedups", m, len(fwd))
	}
}

// TestCellsRerunCancelledRunner: a group that finds one of its cells held by
// another caller runs its own cells, then waits on that one; when the other
// caller is cancelled, the group claims and runs the cell itself under its
// own live context.
func TestCellsRerunCancelledRunner(t *testing.T) {
	ctx := context.Background()
	c := New("")
	p := testProg(t)
	in := testInput(200_000)
	sc := sample.DefaultConf()
	cells := sweepCells(p, 2)

	runnerCtx, cancelRunner := context.WithCancel(ctx)
	runnerDone := make(chan error, 1)
	go func() {
		_, err := c.RunSampledCtx(runnerCtx, p, in, cells[0].Cfg, sc)
		runnerDone <- err
	}()
	awaitInFlight(t, c)

	var got []sample.Result
	groupDone := make(chan error, 1)
	go func() {
		var err error
		got, err = c.RunSampledCells(ctx, in, cells, sc)
		groupDone <- err
	}()
	for i := 0; c.Metrics().Dedups < 1; i++ {
		if i > 1000 {
			t.Fatal("the group never found the runner's cell")
		}
		time.Sleep(time.Millisecond)
	}
	cancelRunner()

	if err := <-runnerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner err = %v, want context.Canceled", err)
	}
	if err := <-groupDone; err != nil {
		t.Fatalf("group err = %v, want success after its rerun", err)
	}
	for i, cell := range cells {
		want, err := sample.Run(ctx, p, in, cell.Cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cell %d: grouped %+v, alone %+v", i, got[i], want)
		}
	}
	if m := c.Metrics(); m.Cancels != 1 || m.Misses != 2 || m.Dedups != 1 {
		t.Errorf("metrics = %+v, want 1 cancel, 2 misses (the group's own cell and its rerun) and 1 dedup", m)
	}
}
