package verify

import (
	"slices"

	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/memo"
)

// The code passes (binary, dataflow, the code half of encode, cfg, dom and
// loops) read only a program's Code, Funcs, Entry and GlobalWords. A
// compiled program is checked once by codegen and then once per selection,
// each time with the same code under a different annotation sidecar, so a
// clean result of the code passes is kept per code array and the later runs
// check only the sidecar.

// codeVerdict records that the code passes found nothing in a snapshot of
// the fields they read. The snapshot is a private copy: a hit compares it
// with the program exactly, so an array modified in place after its verdict
// is checked again rather than served a stale verdict.
type codeVerdict struct {
	code        []isa.Inst
	funcs       []isa.Func
	entry       int
	globalWords int
}

// verdicts holds clean verdicts only, keyed like cfg.Shared's analyses. A
// verdict and the code array its key pins take about twice the code
// segment, 12 KB for a generated program, so the cap keeps the memo under
// 1 MiB.
var verdicts = memo.Bounded[cfg.Key, *codeVerdict]{Cap: 64}

// codeClean reports whether p's code holds a clean verdict that still
// matches it.
func codeClean(p *isa.Program) bool {
	if len(p.Code) == 0 {
		return false
	}
	v, ok := verdicts.Load(cfg.KeyOf(p))
	return ok && v.entry == p.Entry && v.globalWords == p.GlobalWords &&
		slices.Equal(v.code, p.Code) && slices.Equal(v.funcs, p.Funcs)
}

// recordClean stores a clean verdict for p's code; the caller has run every
// code pass on it and found nothing.
func recordClean(p *isa.Program) {
	verdicts.Put(cfg.KeyOf(p), &codeVerdict{
		code:        slices.Clone(p.Code),
		funcs:       slices.Clone(p.Funcs),
		entry:       p.Entry,
		globalWords: p.GlobalWords,
	})
}
