package harness

// The evaluation path. Every caller — the paper figures, populations, the
// static comparison, sweeps and the serve daemon — runs the same phases:
// prepare (compile → profile → select → verify, once per program, reading no
// pipeline.Config) and then simulate (once per machine configuration).
// Prepared is the config-invariant artifact bundle; EvalOptions.simulate is
// the one run function.

import (
	"context"
	"fmt"

	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/trace"
)

// EvalOptions configures the simulate phase of an evaluation, and the
// progress of its prepare phase.
type EvalOptions struct {
	// Cache memoizes simulations (nil = run uncached).
	Cache *simcache.Cache
	// MaxInsts caps simulated instructions per run (0 = to completion).
	MaxInsts uint64
	// Tracer, when non-nil, receives every run's pipeline events and
	// overrides the config's own hook. It must be safe for concurrent use,
	// and traced runs bypass memoization (see
	// simcache.Cache.RunSampledCells).
	Tracer trace.Tracer
	// Progress, when non-nil, is called at each phase transition with one
	// of "compile", "profile", "select", "baseline", "dmp".
	Progress func(phase string)
	// Sample, when Enabled, routes every simulation through the SMARTS
	// sampled executor; the reported Stats are the estimates projected
	// through sample.Result.AsStats. A disabled conf runs every simulation
	// exact. Every run is memoized under its conf-extended key, so sampled
	// and full-fidelity entries stay disjoint.
	Sample sample.SampleConf
}

func (o EvalOptions) note(phase string) {
	if o.Progress != nil {
		o.Progress(phase)
	}
}

// evalConfig is the Table 1 machine, with or without DMP, capped at
// maxInsts simulated instructions (0 = to completion).
func evalConfig(dmp bool, maxInsts uint64) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.DMP = dmp
	cfg.MaxInsts = maxInsts
	return cfg
}

// cell is prog on the Table 1 machine, with or without DMP, capped at
// o.MaxInsts.
func (o EvalOptions) cell(prog *isa.Program, dmp bool) sample.Cell {
	return sample.Cell{Prog: prog, Cfg: evalConfig(dmp, o.MaxInsts)}
}

// simulate is the one run function: each cell's program on input, exact
// or sampled per o.Sample, as one RunSampledCells call memoized through
// o.Cache, with the results and their Stats projections in cell order;
// o.Tracer overrides each cell's own. Sampled cells of a program share
// their functional warming.
func (o EvalOptions) simulate(ctx context.Context, input []int64, cells []sample.Cell) ([]pipeline.Stats, []sample.Result, error) {
	if o.Tracer != nil {
		for i := range cells {
			cells[i].Cfg.Tracer = o.Tracer
		}
	}
	rs, err := o.Cache.RunSampledCells(ctx, input, cells, o.Sample)
	if err != nil {
		return nil, nil, err
	}
	sts := make([]pipeline.Stats, len(rs))
	for i, r := range rs {
		sts[i] = r.AsStats()
	}
	return sts, rs, nil
}

// Prepared holds one program's config-invariant evaluation artifacts: the
// compiled bare binary, the annotated binary selected from the train-tape
// profile, and the run tape. The two binaries share one code segment
// (WithAnnots), so predecoding (predecode.Shared) and simcache program
// hashing are paid once regardless of how many configurations simulate them.
// A Prepared is immutable after construction and safe to simulate from many
// goroutines concurrently.
type Prepared struct {
	Name   string
	Preset string
	Idiom  string
	// Bare is the un-annotated baseline binary; Annotated carries the
	// diverge-branch annotations the selection algorithm chose. Simulate
	// picks between them by Config.DMP.
	Bare      *isa.Program
	Annotated *isa.Program
	// Annots is the number of diverge branches selected.
	Annots int
	// RunInput is the tape the simulate phase consumes.
	RunInput []int64
	// Train is the train-tape profile Annotated was selected from.
	Train *profile.Profile
}

// prepare is the one prepare step: compile, profile the train tape within
// budget instructions (0 = to completion) and select with the named
// algorithm (see core.Algorithms), which checks its annotations' legality.
// opts.Progress is noted at "compile", "profile" and "select".
func prepare(ctx context.Context, name string, compile func() (*isa.Program, error), runInput, trainInput []int64, algo string, budget uint64, opts EvalOptions) (*Prepared, error) {
	opts.note("compile")
	prog, err := compile()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.note("profile")
	prof, err := profile.CollectCtx(ctx, prog, trainInput, profile.Options{MaxInsts: budget})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.note("select")
	res, err := core.SelectByName(prog, prof, algo)
	if err != nil {
		return nil, fmt.Errorf("select %s: %w", algo, err)
	}
	return &Prepared{
		Name:      name,
		Bare:      prog.WithAnnots(nil),
		Annotated: prog.WithAnnots(res.Annots),
		Annots:    len(res.Annots),
		RunInput:  runInput,
		Train:     prof,
	}, nil
}

// compileSource defers compiling a DML source to the prepare step.
func compileSource(source string) func() (*isa.Program, error) {
	return func() (*isa.Program, error) { return codegen.CompileSource(source) }
}

// PrepareSource runs the prepare step for one DML source, selecting with the
// named algorithm ("heur" when empty) from the profile of trainInput
// (runInput when nil). The profiling run is bounded by opts.MaxInsts — or by
// popEmuBudget when unset — so a source program that never halts on its
// train tape truncates instead of hanging the caller. None of these phases
// reads a pipeline.Config: their artifacts are valid for every cell of a
// configuration grid.
func PrepareSource(ctx context.Context, name, source string, runInput, trainInput []int64, algo string, opts EvalOptions) (*Prepared, error) {
	if algo == "" {
		algo = "heur"
	}
	if trainInput == nil {
		trainInput = runInput
	}
	budget := opts.MaxInsts
	if budget == 0 {
		budget = popEmuBudget
	}
	return prepare(ctx, name, compileSource(source), runInput, trainInput, algo, budget, opts)
}

// Simulate runs the per-cell phase for one configuration: SimulateCells of
// cfg alone.
func (p *Prepared) Simulate(ctx context.Context, cfg pipeline.Config, opts EvalOptions) (pipeline.Stats, error) {
	sts, err := p.SimulateCells(ctx, []pipeline.Config{cfg}, opts)
	if err != nil {
		return pipeline.Stats{}, err
	}
	return sts[0], nil
}

// SimulateCells runs the per-cell phase for many configurations at once,
// with the results in cfgs order. Each simulates the annotated binary when
// its DMP is set and the bare binary otherwise (see EvalOptions for
// memoization, sampling and tracing); sampled configurations share their
// functional warming (sample.RunCells).
func (p *Prepared) SimulateCells(ctx context.Context, cfgs []pipeline.Config, opts EvalOptions) ([]pipeline.Stats, error) {
	cells := make([]sample.Cell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = sample.Cell{Prog: p.Bare, Cfg: cfg}
		if cfg.DMP {
			cells[i].Prog = p.Annotated
		}
	}
	sts, _, err := opts.simulate(ctx, p.RunInput, cells)
	return sts, err
}

// EvalGenerated evaluates one generated program end-to-end with the given
// selection algorithm (see EvalSource).
func EvalGenerated(ctx context.Context, p *gen.Program, algo string, opts EvalOptions) (ProgramResult, error) {
	r, err := EvalSource(ctx, p.Name, p.Source, p.RunInput, p.TrainInput, algo, opts)
	r.Preset, r.Idiom = p.Preset, p.Idiom
	return r, err
}

// EvalSource evaluates one DML source end-to-end: PrepareSource, then the
// baseline and DMP machines on the run tape. Cancelling ctx aborts between
// phases, mid-profile and mid-simulation.
func EvalSource(ctx context.Context, name, source string, runInput, trainInput []int64, algo string, opts EvalOptions) (ProgramResult, error) {
	var r ProgramResult
	prep, err := PrepareSource(ctx, name, source, runInput, trainInput, algo, opts)
	if err != nil {
		return r, err
	}
	opts.note("baseline")
	base, err := prep.Simulate(ctx, evalConfig(false, opts.MaxInsts), opts)
	if err != nil {
		return r, fmt.Errorf("baseline: %w", err)
	}
	opts.note("dmp")
	dmp, err := prep.Simulate(ctx, evalConfig(true, opts.MaxInsts), opts)
	if err != nil {
		return r, fmt.Errorf("dmp: %w", err)
	}
	return ProgramResult{
		Name:     name,
		Annots:   prep.Annots,
		BaseIPC:  base.IPC(),
		DMPIPC:   dmp.IPC(),
		DeltaPct: Improvement(base, dmp),
		Retired:  dmp.Retired,
		Audit:    dmp.AuditTotals(),
	}, nil
}

// Improvement returns the DMP speedup over baseline in percent.
func Improvement(base, dmp pipeline.Stats) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (dmp.IPC()/base.IPC() - 1) * 100
}
