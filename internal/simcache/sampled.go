package simcache

import (
	"context"
	"crypto/sha256"

	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// sampledKeySchema versions the sampled-entry key derivation. Its generation
// moves when the estimator behind an unchanged key does: v2 marks purely
// functional warming, whose intervals start from a walk no detailed run
// touched, where v1 entries came from one chained pipeline stream. It also
// folds in sample.Schema() — the fingerprint of the Result wire shape — so
// extending Result invalidates stale sampled entries the same way
// StatsSchema guards full-fidelity ones.
var sampledKeySchema = "dmp-simcache-sampled-v2\x00" + sample.Schema() + "\x00"

// sampledRuns is the sampled kind: Result entries under sm-<Schema>. Their
// estimated cycles never enter SimCycles; the sampled metric counts them.
var sampledRuns = kind[sample.Result]{
	ns:        "sm-" + sample.Schema(),
	marshal:   sample.MarshalResult,
	unmarshal: sample.UnmarshalResult,
	count:     func(m *Metrics, _ sample.Result) { m.sampled.Add(1) },
}

// KeyOfSampled derives the cache key for one sampled simulation: the
// full-fidelity key of the underlying (program, input, config) triple,
// extended with the sampling configuration's canonical form. Two runs with
// equal canonical confs produce identical Results (interval placement is a
// pure function of instruction count and conf), which is what makes sampled
// runs memoizable at all.
func (c *Cache) KeyOfSampled(prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) Key {
	base := c.KeyOf(prog, input, cfg)
	h := sha256.New()
	h.Write([]byte(sampledKeySchema))
	h.Write(base[:])
	h.Write(sc.AppendCanonical(nil))
	var k Key
	h.Sum(k[:0])
	return k
}

// RunSampledCtx returns the memoized sample.Result for the sampled
// simulation, executing it at most once per process per distinct
// (program, input, config, sampling conf) tuple: the one-cell call of
// RunSampledCells. Sampled entries have their own key space and on-disk
// namespace — a sampled estimate and a full-fidelity Stats are different
// animals and must never answer for each other. Otherwise the contract is
// RunCtx's: failed and aborted runs are evicted before their waiters wake
// and are never memoized, a nil cache degenerates to sample.Run, and traced
// configs bypass memoization.
func (c *Cache) RunSampledCtx(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) (sample.Result, error) {
	return one(c.RunSampledCells(ctx, input, []sample.Cell{{Prog: prog, Cfg: cfg}}, sc))
}

// RunSampledCells returns the memoized sample.Result of every cell on input
// under sc, in cell order: the many-cell call of the cache's memoized-run
// path. Each cell is looked up under its own KeyOfSampled, and a duplicate
// cell is a hit on its first copy. The cells that miss in memory and on
// disk run, with the traced cells, as one sample.RunCells call, so they
// share their warm walks, and each untraced result is stored under its own
// key. A group run that fails or is cancelled memoizes none of its cells.
// Cells another caller holds are waited for once the group has run, and
// rerun by this call if their runner was cancelled. A nil cache
// degenerates to sample.RunCells.
func (c *Cache) RunSampledCells(ctx context.Context, input []int64, cells []sample.Cell, sc sample.SampleConf) ([]sample.Result, error) {
	return memoize(ctx, c, &sampledRuns, len(cells),
		func(i int) bool { return cells[i].Cfg.Tracer != nil },
		func(i int) Key { return c.KeyOfSampled(cells[i].Prog, input, cells[i].Cfg, sc) },
		func(ctx context.Context, idx []int) ([]sample.Result, error) {
			group := make([]sample.Cell, len(idx))
			for j, i := range idx {
				group[j] = cells[i]
			}
			return sample.RunCells(ctx, input, group, sc)
		})
}
