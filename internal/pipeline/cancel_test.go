package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dmp/internal/isa"
)

// TestRunCtxPreCancelled: an already-cancelled context aborts the run near
// its start and surfaces context.Canceled.
func TestRunCtxPreCancelled(t *testing.T) {
	prog, _, _ := hammockProg(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, prog, randBits(1, 4096), DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidRun: cancelling while the simulation is in flight makes
// it return promptly (cancellation is checked at trace-batch refills and
// every few thousand cycles, so a long run cannot outlive its context for
// more than a bounded slice of work).
func TestRunCtxCancelMidRun(t *testing.T) {
	prog, _, _ := hammockProg(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Large tape: several hundred thousand cycles uncancelled.
		_, err := RunCtx(ctx, prog, randBits(2, 200_000), DefaultConfig())
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCtx did not return after cancel")
	}
}

// TestRunCtxNilSafe: Run (no context) still works and RunCtx with a live
// background context matches it.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	prog, _, _ := hammockProg(t, 4)
	in := randBits(3, 512)
	st1, err := Run(prog, in, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st2, err := RunCtx(context.Background(), prog, in, DefaultConfig())
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if st1.Cycles != st2.Cycles || st1.Retired != st2.Retired {
		t.Fatalf("RunCtx stats diverge from Run:\n%+v\n%+v", st1, st2)
	}
}

// spinProg never halts: a loop with a load, a data-dependent branch and a
// jump, so a warming skip over it exercises every hook.
func spinProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Func("main")
	b.Label("loop")
	b.ALUI(isa.OpAdd, 1, 1, 1)
	b.ALUI(isa.OpAnd, 2, 1, 1023)
	b.Ld(3, 2, 0)
	b.ALUI(isa.OpAnd, 4, 1, 1)
	b.Beqz(4, "loop")
	b.Jmp("loop")
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// TestSkipCancelMidFastForward: cancelling a warming fast-forward over a
// program that never halts makes it return promptly with the context error
// (the skip polls between instruction chunks).
func TestSkipCancelMidFastForward(t *testing.T) {
	w := NewWarm(spinProg(t), nil, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := w.Skip(ctx, math.MaxUint64, 1<<20)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Skip err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Skip did not return within 2s of cancel")
	}
}
