// Package static estimates a program profile without running the program: a
// static program-analysis pass over DISA binaries that predicts per-branch
// taken probabilities with Ball-Larus-style syntactic/structural heuristics,
// propagates them to block frequencies Wu-Larus-style over the cfg
// dominator/loop analyses, weights functions by a call-graph fixpoint, and
// synthesizes the result as a profile.Profile. Every selection algorithm in
// internal/core then runs completely profile-free — the estimate is just
// another profile source, validated by verify.CheckProfile before it leaves
// this package.
package static

import (
	"fmt"
	"math"

	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// Options configures the estimator.
type Options struct {
	// Program is the display name used in verifier diagnostics (default
	// "static-estimate").
	Program string
	// Scale is the synthesized invocation count of the program entry point
	// (default 1e6). Frequencies are multiplied by Scale before rounding to
	// counts, so the selection compiler's minimum-execution gates see warm
	// branches as warm.
	Scale uint64
	// MaxCyclicProb is the damping factor of the block-frequency solve
	// (default 63/64): every CFG cycle's gain is capped at 1/(1-damping),
	// i.e. loops are assumed to iterate at most ~64 times on average. The
	// damping keeps statically unbounded loops finite and uniformly bounds
	// the estimate's flow-conservation error to a relative 1-damping, even
	// across nested hot loops (see blockFreqs).
	MaxCyclicProb float64
	// CallGraphRounds bounds the call-graph frequency fixpoint iteration
	// (default 32); recursion that has not converged by then is truncated.
	CallGraphRounds int
	// MaxFnFreq caps a function's invocation frequency relative to the entry
	// point (default 1e9), the recursion backstop.
	MaxFnFreq float64
}

func (o Options) withDefaults() Options {
	if o.Program == "" {
		o.Program = "static-estimate"
	}
	if o.Scale == 0 {
		o.Scale = 1_000_000
	}
	if o.MaxCyclicProb == 0 {
		o.MaxCyclicProb = 63.0 / 64.0
	}
	if o.CallGraphRounds == 0 {
		o.CallGraphRounds = 32
	}
	if o.MaxFnFreq == 0 {
		o.MaxFnFreq = 1e9
	}
	return o
}

// Estimate is the result of a static analysis: the synthesized profile plus
// the raw analysis outputs the accuracy report and tests consume.
type Estimate struct {
	// Prof is the synthesized profile. It passes verify.CheckProfile.
	Prof *profile.Profile
	// TakenProb maps each conditional-branch PC to its estimated taken
	// probability (before count rounding).
	TakenProb map[int]float64
	// FnFreq maps each function name to its estimated invocation frequency
	// per program run.
	FnFreq map[string]float64
	// IrreducibleEdges counts retreating CFG edges that were not natural back
	// edges; their flow is dropped rather than looped.
	IrreducibleEdges int
}

// maxSynthCount bounds any single synthesized counter, so deep loop nests
// cannot overflow the uint64 count space downstream consumers sum over.
const maxSynthCount = 1 << 50

// fnState is one function's analysis outputs, pre-synthesis.
type fnState struct {
	fn    isa.Func
	g     *cfg.Graph
	probs map[int]float64 // branch PC -> taken probability
	freq  []float64       // block ID -> frequency per invocation
}

// Analyze statically estimates a profile for the program. The returned
// estimate has been validated by verify.CheckProfile; a failure there is a
// bug in this package and is returned as an error.
func Analyze(p *isa.Program, opt Options) (*Estimate, error) {
	opt = opt.withDefaults()
	est := &Estimate{
		TakenProb: make(map[int]float64),
		FnFreq:    make(map[string]float64),
	}

	states := make([]*fnState, 0, len(p.Funcs))
	fnOfEntry := make(map[int]int, len(p.Funcs))
	for _, fa := range cfg.Shared(p).Funcs {
		if fa.Err != nil {
			return nil, fmt.Errorf("static: %s: %w", fa.Fn.Name, fa.Err)
		}
		fn, g := fa.Fn, fa.Graph
		probs := make(map[int]float64)
		for _, brPC := range g.CondBranches() {
			pr := branchTakenProb(fa, g.BlockAt(brPC))
			probs[brPC] = pr
			est.TakenProb[brPC] = pr
		}
		freq, irr := blockFreqs(fa, probs, opt.MaxCyclicProb)
		est.IrreducibleEdges += irr
		fnOfEntry[fn.Entry] = len(states)
		states = append(states, &fnState{fn: fn, g: g, probs: probs, freq: freq})
	}

	fnFreq := callGraphFreqs(p, states, fnOfEntry, opt)
	for i, st := range states {
		est.FnFreq[st.fn.Name] = fnFreq[i]
	}

	// Synthesize the profile: per-block counts from function frequency ×
	// block frequency × Scale, branch outcomes split by the estimated taken
	// probability (rounded so Taken+NotTaken == ExecCount exactly), and
	// mispredictions at the static-predictor bound min(p, 1-p).
	n := len(p.Code)
	prof := &profile.Profile{
		ExecCount: make([]uint64, n),
		Taken:     make([]uint64, n),
		NotTaken:  make([]uint64, n),
		Mispred:   make([]uint64, n),
	}
	for i, st := range states {
		fw := fnFreq[i]
		if fw <= 0 {
			continue
		}
		for _, b := range st.g.Blocks {
			cf := float64(opt.Scale) * fw * st.freq[b.ID]
			c := uint64(math.Round(cf))
			if cf > maxSynthCount {
				c = maxSynthCount
			}
			if c == 0 {
				continue
			}
			for pc := b.Start; pc < b.End; pc++ {
				prof.ExecCount[pc] = c
			}
			brPC := b.End - 1
			if p.Code[brPC].IsCondBranch() {
				pr := st.probs[brPC]
				tk := uint64(math.Round(float64(c) * pr))
				if tk > c {
					tk = c
				}
				prof.Taken[brPC] = tk
				prof.NotTaken[brPC] = c - tk
				m := math.Min(pr, 1-pr)
				prof.Mispred[brPC] = uint64(math.Round(float64(c) * m))
			}
		}
	}
	var total uint64
	for _, c := range prof.ExecCount {
		total += c
	}
	prof.TotalRetired = total
	est.Prof = prof

	if err := verify.CheckProfile(p, prof, opt.Program); err != nil {
		return nil, fmt.Errorf("static: synthesized estimate rejected: %w", err)
	}
	return est, nil
}

// callGraphFreqs estimates how often each function is invoked per program
// run: the entry function runs once, and each direct call site contributes
// its block's frequency scaled by the caller's own frequency. The fixpoint is
// a bounded Jacobi iteration (Wu-Larus's call-graph propagation, with
// frequency capping instead of strongly-connected-component solving for
// recursion).
func callGraphFreqs(p *isa.Program, states []*fnState, fnOfEntry map[int]int, opt Options) []float64 {
	nf := len(states)
	// calls[i] lists (callee index, expected calls per invocation of i).
	type callEdge struct {
		callee int
		weight float64
	}
	calls := make([][]callEdge, nf)
	for i, st := range states {
		for _, b := range st.g.Blocks {
			for pc := b.Start; pc < b.End; pc++ {
				in := p.Code[pc]
				if in.Op != isa.OpCall {
					continue
				}
				if j, ok := fnOfEntry[in.Target]; ok {
					calls[i] = append(calls[i], callEdge{j, st.freq[b.ID]})
				}
			}
		}
	}

	base := make([]float64, nf)
	if root, ok := fnOfEntry[entryFuncAddr(p)]; ok {
		base[root] = 1
	} else if nf > 0 {
		base[0] = 1
	}
	freq := append([]float64(nil), base...)
	for round := 0; round < opt.CallGraphRounds; round++ {
		next := append([]float64(nil), base...)
		for i := range states {
			if freq[i] == 0 {
				continue
			}
			for _, e := range calls[i] {
				next[e.callee] += freq[i] * e.weight
			}
		}
		stable := true
		for j := range next {
			if next[j] > opt.MaxFnFreq {
				next[j] = opt.MaxFnFreq
			}
			if math.Abs(next[j]-freq[j]) > 1e-9*(1+freq[j]) {
				stable = false
			}
		}
		freq = next
		if stable {
			break
		}
	}
	return freq
}

// entryFuncAddr returns the entry address of the function containing the
// program entry point (the program entry may be mid-prologue).
func entryFuncAddr(p *isa.Program) int {
	if fn := p.FuncAt(p.Entry); fn != nil {
		return fn.Entry
	}
	return p.Entry
}
