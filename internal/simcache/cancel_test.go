package simcache

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRunCtxCancelledNotMemoized: a cancelled run must not poison the cache.
// A later identical request with a live context reruns the simulation and
// succeeds.
func TestRunCtxCancelledNotMemoized(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		c := New("")
		p := testProg(t)
		in := ep.input(50_000)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ep.run(ctx, c, p, in); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run err = %v, want context.Canceled", err)
		}
		m := c.Metrics()
		if m.Cancels != 1 {
			t.Fatalf("Cancels = %d, want 1", m.Cancels)
		}
		if m.Misses != 0 {
			t.Fatalf("Misses = %d after cancelled run, want 0 (must not memoize)", m.Misses)
		}
		if m.SimWall != 0 {
			t.Fatalf("SimWall = %v after cancelled run, want 0", m.SimWall)
		}
		checkCounts(t, ep, m)

		v, err := ep.run(context.Background(), c, p, in)
		if err != nil {
			t.Fatalf("retry after cancel: %v", err)
		}
		if reflect.ValueOf(v).IsZero() {
			t.Fatal("retry after cancel produced an empty result")
		}
		m = c.Metrics()
		if m.Misses != 1 {
			t.Fatalf("Misses = %d after retry, want 1", m.Misses)
		}
		checkCounts(t, ep, m, v)
	})
}

// awaitInFlight waits until c holds one in-flight entry.
func awaitInFlight(t *testing.T, c *Cache) {
	t.Helper()
	for i := 0; ; i++ {
		c.mu.Lock()
		n := len(c.mem)
		c.mu.Unlock()
		if n == 1 {
			return
		}
		if i > 1000 {
			t.Fatal("runner never registered its in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunCtxWaiterSurvivesRunnerCancel: when the in-flight runner is
// cancelled, deduplicated waiters with live contexts retry the simulation
// themselves instead of inheriting the runner's cancellation error.
func TestRunCtxWaiterSurvivesRunnerCancel(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		c := New("")
		p := testProg(t)
		in := ep.input(200_000)

		runnerCtx, cancelRunner := context.WithCancel(context.Background())
		runnerDone := make(chan error, 1)
		go func() {
			_, err := ep.run(runnerCtx, c, p, in)
			runnerDone <- err
		}()
		// Wait until the runner's entry is in flight so the waiters dedup
		// onto it.
		awaitInFlight(t, c)

		var wg sync.WaitGroup
		waiterErrs := make([]error, 3)
		for i := range waiterErrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, waiterErrs[i] = ep.run(context.Background(), c, p, in)
			}(i)
		}
		// Cancel once every waiter is blocked on the runner's entry.
		for i := 0; c.Metrics().Dedups < uint64(len(waiterErrs)); i++ {
			if i > 1000 {
				t.Fatal("waiters never deduplicated onto the runner")
			}
			time.Sleep(time.Millisecond)
		}
		cancelRunner()

		if err := <-runnerDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("runner err = %v, want context.Canceled", err)
		}
		wg.Wait()
		for i, err := range waiterErrs {
			if err != nil {
				t.Errorf("waiter %d err = %v, want success after retry", i, err)
			}
		}
		// One waiter reruns the simulation; the others share its run.
		if m := c.Metrics(); m.Cancels != 1 || m.Misses != 1 {
			t.Errorf("metrics = %+v, want 1 cancel and 1 miss", m)
		}
	})
}

// TestRunCtxWaiterCancelled: a waiter whose own context ends while waiting
// gets its context error back promptly.
func TestRunCtxWaiterCancelled(t *testing.T) {
	forEachEntryPoint(t, func(t *testing.T, ep entryPoint) {
		c := New("")
		p := testProg(t)
		in := ep.input(300_000)

		runnerDone := make(chan struct{})
		go func() {
			defer close(runnerDone)
			if _, err := ep.run(context.Background(), c, p, in); err != nil {
				t.Errorf("runner: %v", err)
			}
		}()
		awaitInFlight(t, c)

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := ep.run(ctx, c, p, in)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiter err = %v, want deadline exceeded", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("waiter blocked %v after its context ended", waited)
		}
		<-runnerDone
	})
}
