// Package workpool is the process-wide worker pool shared by every fan-out
// in the repository: harness experiment sweeps, population runs, config
// sweeps and the serve daemon's jobs. Each of those used to open its own
// GOMAXPROCS-wide goroutine pool, which oversubscribes the machine as soon as
// pools nest — a population run inside a daemon job inside the daemon's own
// worker pool would multiply instead of cap.
// RunIndexed fixes the contract:
//
//   - the *calling* goroutine always executes tasks itself, so a pool makes
//     progress even when no extra capacity is available (and nesting can
//     never deadlock: nobody blocks waiting for a worker);
//   - extra helper goroutines are leased from one process-wide token budget
//     (default GOMAXPROCS-1, settable via SetHelperBudget), so the total
//     simulation concurrency in the process is bounded by
//     #concurrent-pool-callers + budget regardless of nesting depth;
//   - a panic in any task is recovered into a *PanicError carrying the task
//     name, index and stack — one broken workload fails one task, never the
//     process — and all task errors are aggregated with errors.Join in
//     index order;
//   - a cancelled context stops workers at the next task boundary and joins
//     the context error into the aggregate.
package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic recovered into an error: the process-fatal
// crash becomes one failed task attributed to its workload.
type PanicError struct {
	// Task names the workload (benchmark or generated-program name); it may
	// be empty when the pool has no name for the index.
	Task string
	// Index is the task index within the pool run.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	name := e.Task
	if name == "" {
		name = fmt.Sprintf("task %d", e.Index)
	}
	return fmt.Sprintf("%s: worker panic: %v", name, e.Value)
}

// helperBudget is the process-wide pool of extra worker tokens. The caller
// of a pool never needs a token; helpers beyond it do.
var helperBudget = struct {
	mu   sync.Mutex
	cap  int
	used int
	init bool
}{}

// SetHelperBudget bounds the helper goroutines all pools in the process may
// run concurrently, beyond the one goroutine each caller contributes. n <= 0
// forces every pool to run inline on its caller. The default is GOMAXPROCS-1
// (at least 3, so explicit small parallelism keeps real concurrency on
// single-core machines). The serve daemon sets this so its worker count
// stays the true cap on simulation concurrency.
func SetHelperBudget(n int) {
	helperBudget.mu.Lock()
	defer helperBudget.mu.Unlock()
	if n < 0 {
		n = 0
	}
	helperBudget.cap = n
	helperBudget.init = true
}

// HelperBudget returns the current budget capacity.
func HelperBudget() int {
	helperBudget.mu.Lock()
	defer helperBudget.mu.Unlock()
	return budgetCapLocked()
}

func budgetCapLocked() int {
	if !helperBudget.init {
		c := runtime.GOMAXPROCS(0) - 1
		if c < 3 {
			c = 3
		}
		return c
	}
	return helperBudget.cap
}

// TryToken leases one helper token; it never blocks. Callers that want a
// worker loop shaped differently from RunIndexed (none today) must pair it
// with PutToken.
func TryToken() bool {
	helperBudget.mu.Lock()
	defer helperBudget.mu.Unlock()
	if helperBudget.used >= budgetCapLocked() {
		return false
	}
	helperBudget.used++
	return true
}

// PutToken returns a token leased with TryToken.
func PutToken() {
	helperBudget.mu.Lock()
	helperBudget.used--
	helperBudget.mu.Unlock()
}

// RunIndexed runs fn(0..n-1) on the calling goroutine plus up to par-1
// leased helpers. Errors (including recovered panics) are aggregated with
// errors.Join in index order; ctx cancellation stops the pool at the next
// task boundary and contributes its own error. name, when non-nil, labels
// panic errors; busy, when non-nil, brackets each task for pool metrics.
func RunIndexed(ctx context.Context, n, par int, name func(int) string, busy func() func(), fn func(int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				pe := &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				if name != nil {
					pe.Task = name(i)
				}
				errs[i] = pe
			}
		}()
		if busy != nil {
			done := busy()
			defer done()
		}
		errs[i] = fn(i)
	}
	worker := func() {
		for {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			run(i)
		}
	}
	helpers := par - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var wg sync.WaitGroup
	for h := 0; h < helpers && TryToken(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer PutToken()
			worker()
		}()
	}
	worker()
	wg.Wait()
	var ctxErr error
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			ctxErr = fmt.Errorf("workpool: cancelled: %w", err)
		}
	}
	return errors.Join(append(errs, ctxErr)...)
}
