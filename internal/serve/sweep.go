package serve

import (
	"context"
	"fmt"

	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/sweep"
)

// SweepSpec is the bulk-job form: one submission evaluates a whole corpus
// against a configuration grid through the internal/sweep engine, with
// phase-level artifact reuse and per-cell memoization in the server's shared
// simcache. The corpus is either a benchmark subset (Bench; empty = all 17)
// or a generated corpus (Presets/N/SeedBase); the job's top-level Algo,
// MaxInsts and Sample blocks apply to every cell.
type SweepSpec struct {
	// Axes are the swept Config dimensions, e.g.
	// {"field": "ROBSize", "values": ["128", "512"]}.
	Axes []sweep.Axis `json:"axes"`
	// Bench selects hand-written benchmarks by name (empty and no Presets =
	// all 17); Scale is their input scale factor.
	Bench []string `json:"bench,omitempty"`
	Scale int      `json:"scale,omitempty"`
	// Presets selects a generated corpus instead: N programs per the named
	// ProgramConf presets ("all" = every preset), seeded from SeedBase.
	Presets  []string `json:"presets,omitempty"`
	N        int      `json:"n,omitempty"`
	SeedBase uint64   `json:"seed_base,omitempty"`
}

// validate checks the sweep block shape: a valid grid and a resolvable
// corpus selection.
func (sp *SweepSpec) validate() error {
	g := &sweep.GridSpec{Axes: sp.Axes}
	if err := g.Validate(); err != nil {
		return err
	}
	if len(sp.Bench) > 0 && len(sp.Presets) > 0 {
		return fmt.Errorf("sweep: bench and presets are mutually exclusive")
	}
	if _, err := sp.corpus(); err != nil {
		return err
	}
	return nil
}

// corpus resolves the spec's program selection.
func (sp *SweepSpec) corpus() ([]sweep.Program, error) {
	if len(sp.Presets) > 0 {
		confs, err := gen.ResolvePresets(sp.Presets)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		n := sp.N
		if n <= 0 {
			n = 20
		}
		seed := sp.SeedBase
		if seed == 0 {
			seed = 1
		}
		return sweep.FromGen(gen.BuildCorpus(confs, n, seed)), nil
	}
	return sweep.FromBench(sp.Bench, sp.Scale)
}

// defaultExecSweep runs a sweep job through the sweep engine, mapping the
// job's evaluation options onto sweep options and cell progress onto the
// job's phase string.
func (s *Server) defaultExecSweep(ctx context.Context, spec JobSpec, opts harness.EvalOptions) (*sweep.Report, error) {
	progs, err := spec.Sweep.corpus()
	if err != nil {
		return nil, err
	}
	grid := &sweep.GridSpec{Axes: spec.Sweep.Axes}
	swOpts := sweep.Options{
		Algo:     spec.Algo,
		MaxInsts: opts.MaxInsts,
		Cache:    opts.Cache,
		Sample:   opts.Sample,
	}
	if opts.Progress != nil {
		swOpts.Progress = func(done, skipped, total int) {
			opts.Progress(fmt.Sprintf("sweep %d/%d", done+skipped, total))
		}
	}
	return sweep.Run(ctx, progs, grid, swOpts)
}
