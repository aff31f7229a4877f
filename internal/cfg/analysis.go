package cfg

import (
	"dmp/internal/isa"
	"dmp/internal/memo"
)

// FuncAnalysis is one function's CFG and the analyses derived from it.
type FuncAnalysis struct {
	Fn    isa.Func
	Graph *Graph
	Dom   *DomTree
	PDom  *DomTree
	Loops []*Loop
	// Err is why Build rejected the function; the analyses are then nil.
	Err error
}

// Analysis holds the analyses of every function of one binary, in the
// order of its Funcs. It is shared and must not be modified.
type Analysis struct {
	Funcs []*FuncAnalysis
}

// FuncAt returns the analysis of the first function whose extent holds pc,
// or nil.
func (a *Analysis) FuncAt(pc int) *FuncAnalysis {
	for _, fa := range a.Funcs {
		if pc >= fa.Fn.Entry && pc < fa.Fn.End {
			return fa
		}
	}
	return nil
}

// Key identifies a binary by its code and symbol arrays: the layers that
// memoize artifacts derived from those arrays alone key them this way. The
// pointers pin both arrays while the key sits in a memo, so their addresses
// cannot be reused by other arrays. It says nothing of the arrays' contents,
// which their owner must not modify in place once keyed.
type Key struct {
	code         *isa.Inst
	nCode, nFunc int
	funcs        *isa.Func
}

// KeyOf returns the key of p's code and symbol arrays.
func KeyOf(p *isa.Program) Key {
	k := Key{nCode: len(p.Code), nFunc: len(p.Funcs)}
	if len(p.Code) > 0 {
		k.code = &p.Code[0]
	}
	if len(p.Funcs) > 0 {
		k.funcs = &p.Funcs[0]
	}
	return k
}

// sharedMemo holds one Analysis per binary. The analyses depend only on
// the code and the function symbols, so a binary's annotation variants
// (WithAnnots) and every consumer of one compiled program (codegen's check,
// the selectors, the static estimator, the verifier) share one. An analysis
// and the code array it pins take about 14 KB for a generated program (8 KB
// and 6 KB, averaged over a 400-program generated corpus), so the small cap
// keeps the memo under 1 MiB.
var sharedMemo = memo.Bounded[Key, *Analysis]{Cap: 64}

// Shared returns the analyses of p's functions, built once per code array
// and symbol table. Neither may be modified in place after the first
// analysis.
func Shared(p *isa.Program) *Analysis {
	if len(p.Code) == 0 {
		return analyze(p)
	}
	return sharedMemo.Get(KeyOf(p), func() *Analysis { return analyze(p) })
}

func analyze(p *isa.Program) *Analysis {
	a := &Analysis{Funcs: make([]*FuncAnalysis, len(p.Funcs))}
	fas := make([]FuncAnalysis, len(p.Funcs))
	for i, fn := range p.Funcs {
		fa := &fas[i]
		a.Funcs[i], fa.Fn = fa, fn
		if fa.Graph, fa.Err = Build(p, fn); fa.Err == nil {
			fa.Dom, fa.PDom = Dominators(fa.Graph), PostDominators(fa.Graph)
			fa.Loops = NaturalLoops(fa.Graph, fa.Dom)
		}
	}
	return a
}
