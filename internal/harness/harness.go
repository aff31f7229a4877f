// Package harness orchestrates the paper's evaluation: it compiles the
// benchmark corpus, collects profiles, runs the selection algorithms, drives
// the cycle-level simulator, and regenerates every table and figure of the
// evaluation section (Tables 1-2, Figures 5-10).
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/trace"
	"dmp/internal/workpool"
)

// Options configures a corpus session or a population run: what a corpus
// adds beside the per-program EvalOptions.
type Options struct {
	EvalOptions
	// Scale multiplies every benchmark's input size (1 = default).
	Scale int
	// Benchmarks restricts the corpus (nil = all).
	Benchmarks []string
	// Parallelism bounds concurrent work (0 = GOMAXPROCS).
	Parallelism int
	// Ctx, when non-nil, cancels a session's pooled runs: workers stop at
	// the next task boundary and in-flight simulations abort at block-batch
	// granularity (see pipeline.RunCtx). Only NewSession reads it; the
	// session keeps it for every later experiment. RunPopulation and
	// RunPopulationCompare take their context as an argument instead.
	Ctx context.Context
}

// withDefaults fills the zero settings; a nil Cache becomes a fresh cache
// honouring DMP_CACHE_DIR (see internal/simcache).
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Cache == nil {
		o.Cache = simcache.FromEnv()
	}
	return o
}

// ctx returns the options' context, or Background when Ctx is nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Workload is one prepared program as the paper's figures see it: the
// Prepared artifacts (Annotated is All-best-heur from the train profile)
// plus the run-tape profile that the "same input" selections read.
type Workload struct {
	*Prepared
	// Bench is the corpus benchmark (nil for a generated program).
	Bench   *bench.Benchmark
	ProfRun *profile.Profile

	// sess is the session whose options and aggregates the workload's runs
	// use (nil outside a session: the three-way comparison simulates
	// through EvalOptions itself).
	sess *Session
}

// prepareWorkload runs the prepare step with heur selection and then
// profiles the run tape, both within budget instructions (0 = to
// completion).
func prepareWorkload(ctx context.Context, name string, compile func() (*isa.Program, error), runInput, trainInput []int64, budget uint64, opts EvalOptions) (*Workload, error) {
	p, err := prepare(ctx, name, compile, runInput, trainInput, "heur", budget, opts)
	if err != nil {
		return nil, err
	}
	w := &Workload{Prepared: p}
	if w.ProfRun, err = profile.CollectCtx(ctx, p.Bare, runInput, profile.Options{MaxInsts: budget}); err != nil {
		return nil, fmt.Errorf("run profile: %w", err)
	}
	return w, nil
}

// Baseline simulates the bare binary on the run tape.
func (w *Workload) Baseline() (pipeline.Stats, error) { return w.run(w.Bare, false, "baseline") }

// RunDMP simulates the DMP machine on the run tape with annotations from a
// core selection, which has checked their legality. Selection
// configurations that produce identical annotation sidecars (as many of the
// Figure 5-9 sweeps do) hit the simulation cache.
func (w *Workload) RunDMP(annots map[int]*isa.DivergeInfo) (pipeline.Stats, error) {
	return w.run(w.Bare.WithAnnots(annots), true, "dmp")
}

// run is the one-cell case of the session's simulate.
func (w *Workload) run(prog *isa.Program, dmp bool, phase string) (pipeline.Stats, error) {
	sts, err := w.sess.simulate(w, []sample.Cell{w.sess.Opts.cell(prog, dmp)})
	if err != nil {
		return pipeline.Stats{}, fmt.Errorf("%s: %s: %w", w.Name, phase, err)
	}
	return sts[0], nil
}

// Select runs a selection configuration against the run-tape profile, or the
// train-tape profile when train is set.
func (w *Workload) Select(p core.Params, train bool) (*core.Result, error) {
	prof := w.ProfRun
	if train {
		prof = w.Train
	}
	res, err := core.Select(w.Bare, prof, p)
	if err != nil {
		return nil, fmt.Errorf("%s: select: %w", w.Name, err)
	}
	return res, nil
}

// Session holds prepared workloads and shared options.
type Session struct {
	Workloads []*Workload
	Opts      Options

	pool  poolCounters
	expMu sync.Mutex
	exps  []ExperimentMetric

	// runMu guards the per-run aggregates below (dpred-session audit
	// totals and degenerate-run diagnostics), surfaced by Metrics.
	runMu      sync.Mutex
	dmpRuns    uint64
	sessTotals trace.AuditTotals
	degenRuns  uint64
	degenNames map[string]bool
	sampAgg    sampleAgg

	// startMallocs is the process-wide heap-allocation count at session
	// creation; Metrics reports the delta as the session's allocation cost
	// (the numerator of allocs-per-kilo-instruction).
	startMallocs uint64
}

// simulate runs w's cells on its run tape in one EvalOptions.simulate call
// and folds the results into the session aggregates: DMP runs add their
// session audit, sampled runs their accounting, and a run that retired
// zero instructions is recorded as degenerate for the metrics report.
func (s *Session) simulate(w *Workload, cells []sample.Cell) ([]pipeline.Stats, error) {
	sts, rs, err := s.Opts.simulate(s.Opts.ctx(), w.RunInput, cells)
	if err != nil {
		return nil, err
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	for i, r := range rs {
		s.sampAgg.add(r)
		if cells[i].Cfg.DMP {
			s.dmpRuns++
			s.sessTotals.Add(sts[i].Audit)
		}
		if sts[i].Degenerate() {
			s.degenRuns++
			if s.degenNames == nil {
				s.degenNames = map[string]bool{}
			}
			s.degenNames[w.Name] = true
		}
	}
	return sts, nil
}

// Cache returns the session's simulation cache.
func (s *Session) Cache() *simcache.Cache { return s.Opts.Cache }

// NewSession compiles and prepares the corpus. Sessions profile both tapes
// to completion, whatever opts.MaxInsts caps the simulations at, so the
// selections do not depend on the simulation budget.
func NewSession(opts Options) (*Session, error) {
	opts = opts.withDefaults()
	list := bench.All()
	if opts.Benchmarks != nil {
		list = nil
		for _, name := range opts.Benchmarks {
			b := bench.ByName(name)
			if b == nil {
				return nil, fmt.Errorf("harness: unknown benchmark %q", name)
			}
			list = append(list, b)
		}
	}
	s := &Session{Opts: opts, startMallocs: procMallocs()}
	s.Workloads = make([]*Workload, len(list))
	err := s.forEachIdx(len(list), func(i int) error {
		b := list[i]
		w, err := prepareWorkload(opts.ctx(), b.Name, b.Compile,
			b.Input(bench.RunInput, opts.Scale), b.Input(bench.TrainInput, opts.Scale), 0, opts.EvalOptions)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		w.Bench, w.sess = b, s
		s.Workloads[i] = w
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Names returns the benchmark names of the session in order.
func (s *Session) Names() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// forEachIdx runs fn(0..n-1) on the shared worker pool (internal/workpool)
// with the session's parallelism bound and context. All worker errors —
// including panics recovered into *workpool.PanicError — are aggregated
// (errors.Join) in index order, not just the first to arrive, so a
// multi-benchmark failure reports every broken workload deterministically.
func (s *Session) forEachIdx(n int, fn func(int) error) error {
	wallDone := s.pool.enter()
	defer wallDone()
	name := func(i int) string {
		if i < len(s.Workloads) {
			if w := s.Workloads[i]; w != nil {
				return w.Name
			}
		}
		return ""
	}
	return workpool.RunIndexed(s.Opts.Ctx, n, s.Opts.Parallelism, name, s.pool.busy, fn)
}

// SelectionConfig is one named selection configuration of Figure 5.
type SelectionConfig struct {
	Name   string
	Params core.Params
}

// HeuristicConfigs returns the cumulative Figure 5 (left) configurations in
// order: exact, exact+freq, +short, +ret, +loop (All-best-heur).
func HeuristicConfigs() []SelectionConfig {
	exact := core.HeuristicParams()
	exact.EnableFreq = false
	exact.EnableShort = false
	exact.EnableRetCFM = false
	exact.EnableLoops = false

	freq := exact
	freq.EnableFreq = true

	short := freq
	short.EnableShort = true

	ret := short
	ret.EnableRetCFM = true

	loop := ret
	loop.EnableLoops = true

	return []SelectionConfig{
		{"exact", exact},
		{"exact+freq", freq},
		{"exact+freq+short", short},
		{"exact+freq+short+ret", ret},
		{"All-best-heur", loop},
	}
}

// CostConfigs returns the Figure 5 (right) configurations in order:
// cost-long, cost-edge, cost-edge+short, +ret, +loop (All-best-cost).
func CostConfigs() []SelectionConfig {
	long := core.CostParams(core.LongestPath)
	long.EnableShort = false
	long.EnableRetCFM = false
	long.EnableLoops = false

	edge := core.CostParams(core.EdgeWeighted)
	edge.EnableShort = false
	edge.EnableRetCFM = false
	edge.EnableLoops = false

	short := edge
	short.EnableShort = true

	ret := short
	ret.EnableRetCFM = true

	loop := ret
	loop.EnableLoops = true

	return []SelectionConfig{
		{"cost-long", long},
		{"cost-edge", edge},
		{"cost-edge+short", short},
		{"cost-edge+short+ret", ret},
		{"All-best-cost", loop},
	}
}
