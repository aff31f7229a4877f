package pipeline

import (
	"context"
	"errors"

	"dmp/internal/emu"
	"dmp/internal/predecode"
)

// traceBatchSize is how many correct-path entries the reader requests from
// the emulator per refill. Batching amortises the per-call overhead of the
// emulator across a few hundred instructions; the buffer is allocated once
// per Sim, so the steady-state loop stays allocation-free.
const traceBatchSize = 256

// traceReader supplies the correct execution path from the functional
// emulator in batches, exposing the same one-entry-lookahead interface the
// fetch stage needs (Peek to learn the resume PC after a flush before
// consuming the entry). Running the emulator up to a batch ahead of the
// pipeline is safe: the pipeline only reads trace entries, never the
// machine's registers or memory, until the run completes.
type traceReader struct {
	m   *emu.Machine
	buf []emu.Trace
	pos int // next unconsumed index in buf[:n]
	n   int
	// done is set at halt, when maxInsts entries have been produced, or
	// when a preloaded window (load) is all the trace there is.
	done bool
	// pending holds a fault discovered mid-batch; it surfaces as err only
	// after the entries before it have been consumed, exactly when a
	// step-by-step reader would have hit it.
	pending  error
	err      error
	count    uint64
	fetched  uint64
	maxInsts uint64
	// ctx, when non-nil, cancels the run at batch-refill boundaries; the
	// resulting err wraps the context error (set via Sim.RunCtx).
	ctx context.Context
}

func newTraceReader(m *emu.Machine, maxInsts uint64) *traceReader {
	return &traceReader{m: m, buf: make([]emu.Trace, traceBatchSize), maxInsts: maxInsts}
}

func (t *traceReader) fill() {
	if t.pos < t.n || t.done || t.err != nil {
		return
	}
	if t.pending != nil {
		t.err = t.pending
		return
	}
	// Block-batch boundary: the natural cancellation point — each refill
	// represents up to traceBatchSize instructions of functional execution.
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			t.err = err
			return
		}
	}
	lim := uint64(len(t.buf))
	if t.maxInsts > 0 {
		rem := t.maxInsts - t.fetched
		if rem == 0 {
			t.done = true
			return
		}
		if rem < lim {
			lim = rem
		}
	}
	k, err := t.m.StepBatch(t.buf[:lim])
	t.pos, t.n = 0, k
	t.fetched += uint64(k)
	if err != nil {
		switch {
		case errors.Is(err, emu.ErrHalted):
			t.done = true
		case k == 0:
			t.err = err
		default:
			t.pending = err
		}
	}
}

// load makes win the whole remaining trace: a sampled interval's window,
// recorded once by the warm walk and read by every configuration it runs.
// The reader never writes the entries, so one window serves them all.
func (t *traceReader) load(win []emu.Trace) {
	t.buf, t.pos, t.n, t.done = win, 0, len(win), true
}

// replay reports one buffered trace entry through h the way
// emu.RunBlocks reports a retired instruction: its one-instruction extent,
// then its load or control-flow event.
func replay(h *emu.BlockHooks, rec *predecode.Rec, e *emu.Trace) {
	if h.Block != nil {
		h.Block(e.PC, e.PC)
	}
	switch rec.Kind {
	case predecode.KLd, predecode.KLdNoWB:
		if h.Load != nil {
			h.Load(e.PC, e.Addr)
		}
	case predecode.KSt:
		if h.Store != nil {
			h.Store(e.PC, e.Addr)
		}
	case predecode.KBeqz, predecode.KBnez:
		if h.Branch != nil {
			h.Branch(e.PC, e.Taken, int(rec.Target))
		}
	case predecode.KCall, predecode.KCallR:
		if h.Call != nil {
			h.Call(e.PC, e.NextPC)
		}
	case predecode.KRet:
		if h.Ret != nil {
			h.Ret(e.PC)
		}
	case predecode.KJmp, predecode.KJr:
		if h.Jump != nil {
			h.Jump(e.PC, e.NextPC)
		}
	}
}

// Peek returns the next correct-path entry without consuming it. The
// pointer is valid until the next call that consumes an entry past the
// current batch.
func (t *traceReader) Peek() (*emu.Trace, bool) {
	t.fill()
	if t.pos >= t.n {
		return nil, false
	}
	return &t.buf[t.pos], true
}

// Next consumes and returns the next correct-path entry.
func (t *traceReader) Next() (*emu.Trace, bool) {
	t.fill()
	if t.pos >= t.n {
		return nil, false
	}
	tr := &t.buf[t.pos]
	t.pos++
	t.count++
	return tr, true
}

// Done reports whether the trace is exhausted.
func (t *traceReader) Done() bool {
	t.fill()
	return t.pos >= t.n && (t.done || t.err != nil)
}

// Err returns a functional-execution error, if any.
func (t *traceReader) Err() error { return t.err }

// Count returns the number of consumed entries.
func (t *traceReader) Count() uint64 { return t.count }
