package workpool_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmp/internal/workpool"
)

// withBudget runs f with the helper budget pinned to n, restoring it after.
func withBudget(t *testing.T, n int, f func()) {
	t.Helper()
	old := workpool.HelperBudget()
	workpool.SetHelperBudget(n)
	defer workpool.SetHelperBudget(old)
	f()
}

// TestRunIndexedPanicIsolation: a panicking task becomes one *PanicError
// naming the workload; every other task still runs and the process survives.
func TestRunIndexedPanicIsolation(t *testing.T) {
	var ran atomic.Int64
	names := []string{"alpha", "beta", "gamma", "delta"}
	err := workpool.RunIndexed(context.Background(), 4, 4,
		func(i int) string { return names[i] }, nil,
		func(i int) error {
			if i == 2 {
				panic("synthetic workload crash")
			}
			ran.Add(1)
			return nil
		})
	if err == nil {
		t.Fatal("panic was swallowed: RunIndexed returned nil")
	}
	var pe *workpool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *workpool.PanicError in the join: %v", err, err)
	}
	if pe.Task != "gamma" || pe.Index != 2 {
		t.Errorf("PanicError = {Task:%q Index:%d}, want {gamma 2}", pe.Task, pe.Index)
	}
	if !strings.Contains(pe.Error(), "gamma") || !strings.Contains(pe.Error(), "synthetic workload crash") {
		t.Errorf("PanicError.Error() = %q: missing task name or panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("other tasks ran = %d, want 3", got)
	}
}

// TestRunIndexedAggregatesErrors: every failed task's error survives into
// the aggregate (the old forEachBounded kept only the first).
func TestRunIndexedAggregatesErrors(t *testing.T) {
	wantErrs := map[int]error{1: errors.New("boom-1"), 3: errors.New("boom-3")}
	err := workpool.RunIndexed(context.Background(), 5, 2, nil, nil, func(i int) error {
		return wantErrs[i] // nil for the others
	})
	for i, want := range wantErrs {
		if !errors.Is(err, want) {
			t.Errorf("aggregate lost task %d's error (%v): got %v", i, want, err)
		}
	}
}

// TestRunIndexedBudgetBoundsConcurrency: with the process budget pinned to
// b, a single pool never runs more than 1+b tasks at once no matter how
// much parallelism it asks for.
func TestRunIndexedBudgetBoundsConcurrency(t *testing.T) {
	const budget = 2
	withBudget(t, budget, func() {
		var cur, peak atomic.Int64
		err := workpool.RunIndexed(context.Background(), 32, 16, nil, nil, func(int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > 1+budget {
			t.Errorf("peak concurrency = %d, want <= %d (caller + budget)", got, 1+budget)
		}
	})
}

// TestRunIndexedZeroBudgetRunsInline: budget 0 still completes all work on
// the calling goroutine.
func TestRunIndexedZeroBudgetRunsInline(t *testing.T) {
	withBudget(t, 0, func() {
		var cur, peak atomic.Int64
		var ran atomic.Int64
		err := workpool.RunIndexed(context.Background(), 10, 8, nil, nil, func(int) error {
			n := cur.Add(1)
			if n > peak.Load() {
				peak.Store(n)
			}
			ran.Add(1)
			cur.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 10 {
			t.Errorf("ran = %d, want 10", ran.Load())
		}
		if peak.Load() != 1 {
			t.Errorf("peak concurrency = %d, want 1 (inline only)", peak.Load())
		}
	})
}

// TestRunIndexedNestedPoolsNoDeadlock: pools nested three deep with a tiny
// budget complete (callers always run tasks inline, so no one waits on a
// worker that can never come).
func TestRunIndexedNestedPoolsNoDeadlock(t *testing.T) {
	withBudget(t, 1, func() {
		var leaves atomic.Int64
		done := make(chan error, 1)
		go func() {
			done <- workpool.RunIndexed(context.Background(), 3, 4, nil, nil, func(int) error {
				return workpool.RunIndexed(context.Background(), 3, 4, nil, nil, func(int) error {
					return workpool.RunIndexed(context.Background(), 3, 4, nil, nil, func(int) error {
						leaves.Add(1)
						return nil
					})
				})
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("nested pools deadlocked")
		}
		if got := leaves.Load(); got != 27 {
			t.Errorf("leaf tasks = %d, want 27", got)
		}
	})
}

// TestRunIndexedCancel: cancelling the context stops the pool at a task
// boundary and the aggregate carries the context error.
func TestRunIndexedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := workpool.RunIndexed(ctx, 100, 1, nil, nil, func(i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the aggregate", err)
	}
	if got := ran.Load(); got >= 100 {
		t.Errorf("pool ran all %d tasks despite cancellation", got)
	}
}

// TestRunIndexedPanicAndErrorsCoexist: a panic and ordinary errors from
// different tasks all appear in one aggregate.
func TestRunIndexedPanicAndErrorsCoexist(t *testing.T) {
	plain := errors.New("plain failure")
	err := workpool.RunIndexed(context.Background(), 4, 2,
		func(i int) string { return fmt.Sprintf("prog-%d", i) }, nil,
		func(i int) error {
			switch i {
			case 0:
				panic("crash")
			case 2:
				return plain
			}
			return nil
		})
	var pe *workpool.PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Errorf("aggregate missing the panic from task 0: %v", err)
	}
	if !errors.Is(err, plain) {
		t.Errorf("aggregate missing the plain error from task 2: %v", err)
	}
}

// TestForEachBoundedAggregatesAllErrors pins the contract the harness's
// unbounded fan-outs (population, static, sample-error) rely on from
// workpool.RunIndexed: every failing workload's error reaches the caller,
// not just the first (the pre-fix behaviour).
func TestForEachBoundedAggregatesAllErrors(t *testing.T) {
	e1, e2 := errors.New("w1 failed"), errors.New("w3 failed")
	err := workpool.RunIndexed(context.Background(), 4, 2,
		func(i int) string { return "workload" }, nil,
		func(i int) error {
			switch i {
			case 1:
				return e1
			case 3:
				return e2
			}
			return nil
		})
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("RunIndexed dropped an error: got %v, want both %v and %v", err, e1, e2)
	}
}
