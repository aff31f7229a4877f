package harness

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmp/internal/gen"
	"dmp/internal/simcache"
)

// TestRunPopulationCtxCancel: cancelling a population run mid-flight returns
// promptly with the context error, leaks no goroutines, and leaves the disk
// cache free of torn or temporary entries (only whole, parseable results may
// land, thanks to temp+rename writes and the no-memoize-on-cancel rule).
func TestRunPopulationCtxCancel(t *testing.T) {
	dir := t.TempDir()
	cache := simcache.New(dir)
	progs := gen.BuildCorpus(gen.Presets(), 6, 11)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunPopulation(ctx, progs, Options{Parallelism: 4, EvalOptions: EvalOptions{Cache: cache}})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunPopulation err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunPopulation did not return after cancel")
	}

	// Helper goroutines must wind down (pool helpers exit at task
	// boundaries; allow the runtime a moment to reap them).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 || time.Now().After(deadline) {
			if g > before+1 {
				t.Errorf("goroutines: %d before, %d after cancel (leak?)", before, g)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No torn disk entries: nothing temporary left behind, and every
	// persisted result is complete valid JSON.
	entries := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), "tmp-") {
			t.Errorf("stale temp file in cache dir: %s", path)
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".json") {
			t.Errorf("unexpected file in cache dir: %s", path)
			return nil
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if !json.Valid(b) {
			t.Errorf("torn cache entry (invalid JSON): %s", path)
		}
		entries++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cache dir holds %d whole entries after cancel", entries)
}

// TestRunPopulationCtxCompletesAfterCancelledRun: the same corpus and cache
// still evaluate cleanly after a cancelled attempt — no cancellation residue
// in the memoization layer.
func TestRunPopulationCtxCompletesAfterCancelledRun(t *testing.T) {
	cache := simcache.New("")
	progs := gen.BuildCorpus(gen.Presets(), 2, 23)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPopulation(ctx, progs, Options{Parallelism: 2, EvalOptions: EvalOptions{Cache: cache}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run err = %v, want context.Canceled", err)
	}

	rep, err := RunPopulation(context.Background(), progs, Options{Parallelism: 2, EvalOptions: EvalOptions{Cache: cache}})
	if err != nil {
		t.Fatalf("clean run after cancelled run: %v", err)
	}
	if rep.Count != len(progs) {
		t.Fatalf("report covers %d programs, want %d", rep.Count, len(progs))
	}
	for _, r := range rep.Results {
		if r.Name == "" || r.BaseIPC <= 0 {
			t.Errorf("incomplete result after cancel residue: %+v", r)
		}
	}
}

// TestRunPopulationCompareCtxCancelMidProgram: cancelling a three-way
// comparison while a program is being profiled returns promptly with the
// context error. The program runs for hundreds of millions of instructions,
// so the call can only return within the bound if the in-flight profile and
// simulation honour the context.
func TestRunPopulationCompareCtxCancelMidProgram(t *testing.T) {
	long := &gen.Program{Name: "long-loop", Idiom: "loop", Source: `
var acc = 0;
func main() {
    var i = 0;
    while (i < 100000000) {
        if (i & 1) { acc = acc + i; } else { acc = acc - 1; }
        i = i + 1;
    }
    out(acc);
}
`}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunPopulationCompare(ctx, []*gen.Program{long}, Options{Parallelism: 1, EvalOptions: EvalOptions{Cache: simcache.New("")}})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunPopulationCompare err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunPopulationCompare did not return within 2s of cancel")
	}
}

// TestNewSessionCtxCancelDuringProfile: cancelling a session while it
// profiles returns promptly with the context error and leaks no goroutines.
// At scale 250 mcf's two profiles take seconds, so the call can only return
// within the bound if profiling honours the context.
func TestNewSessionCtxCancelDuringProfile(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := NewSession(Options{Benchmarks: []string{"mcf"}, Scale: 250, Parallelism: 1, Ctx: ctx})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	start := time.Now()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("NewSession err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("NewSession took %v to return after cancel", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("NewSession did not return after cancel")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 || time.Now().After(deadline) {
			if g > before+1 {
				t.Errorf("goroutines: %d before, %d after cancel (leak?)", before, g)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}
