package simcache

import (
	"context"
	"crypto/sha256"
	"errors"

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

// RunSampled is RunSampledCtx without cancellation.
func (c *Cache) RunSampled(prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) (sample.Result, error) {
	return c.RunSampledCtx(context.Background(), prog, input, cfg, sc)
}

// RunSampledCtx returns the memoized sample.Result for the sampled
// simulation, executing it at most once per process per distinct
// (program, input, config, sampling conf) tuple. Sampled entries have their
// own key space and on-disk namespace — a sampled estimate and a
// full-fidelity Stats are different animals and must never answer for each
// other. Otherwise the contract is RunCtx's: aborted runs are evicted
// before their waiters wake and are never memoized, a nil cache degenerates
// to sample.Run, and traced configs bypass memoization.
func (c *Cache) RunSampledCtx(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) (sample.Result, error) {
	return memoized(ctx, c, &sampledRuns, cfg.Tracer != nil,
		func() Key { return c.KeyOfSampled(prog, input, cfg, sc) },
		func(ctx context.Context) (sample.Result, error) { return sample.Run(ctx, prog, input, cfg, sc) })
}

// RunSampledCells returns the memoized sample.Result of every cell on input
// under sc, in cell order. Each cell is looked up under its own
// KeyOfSampled, exactly as RunSampledCtx would look it up; the cells that
// miss in memory and on disk run as one sample.RunCells call, so they share
// their warm walks, and each is stored under its own key. A cell another
// caller is already running is waited for as in RunSampledCtx. A group run
// that fails or is cancelled memoizes none of its cells: their entries are
// evicted before their waiters wake. Traced cells run with the group and
// bypass memoization; a nil cache degenerates to sample.RunCells.
func (c *Cache) RunSampledCells(ctx context.Context, input []int64, cells []sample.Cell, sc sample.SampleConf) (_ []sample.Result, err error) {
	if c == nil {
		return sample.RunCells(ctx, input, cells, sc)
	}
	keys := make([]Key, len(cells))
	for i, cell := range cells {
		if cell.Cfg.Tracer == nil {
			keys[i] = c.KeyOfSampled(cell.Prog, input, cell.Cfg, sc)
		}
	}
	// own[i] is cell i's in-flight entry when this call claimed it; taken
	// marks the cells someone else (or a duplicate earlier cell) holds.
	own := make([]*entry[sample.Result], len(cells))
	taken := make([]bool, len(cells))
	c.mu.Lock()
	for i, cell := range cells {
		if cell.Cfg.Tracer != nil {
			continue
		}
		if _, ok := c.mem[keys[i]]; ok {
			taken[i] = true
			continue
		}
		own[i] = &entry[sample.Result]{ready: make(chan struct{})}
		c.mem[keys[i]] = own[i]
	}
	c.mu.Unlock()
	defer func() {
		// Whatever the group run did not resolve is not a result.
		for i, e := range own {
			if e == nil {
				continue
			}
			if e.err = err; err == nil {
				e.err = errors.New("simcache: sampled group run abandoned")
			}
			c.evict(keys[i])
			close(e.ready)
		}
	}()

	out := make([]sample.Result, len(cells))
	var run []int
	for i, e := range own {
		switch {
		case taken[i]:
		case e == nil:
			run = append(run, i) // traced
		default:
			if v, ok := load(c, &sampledRuns, keys[i]); ok {
				e.val, out[i] = v, v
				close(e.ready)
				own[i] = nil
				continue
			}
			run = append(run, i)
		}
	}
	if len(run) > 0 {
		group := make([]sample.Cell, len(run))
		for j, i := range run {
			group[j] = cells[i]
		}
		var rs []sample.Result
		rs, err = timed(ctx, c, func(ctx context.Context) ([]sample.Result, error) {
			return sample.RunCells(ctx, input, group, sc)
		})
		if err != nil {
			if isCtxErr(err) {
				c.metrics.cancels.Add(1)
			}
			return nil, err
		}
		for j, i := range run {
			out[i] = rs[j]
			e := own[i]
			if e == nil {
				c.metrics.bypasses.Add(1)
				sampledRuns.count(&c.metrics, rs[j])
				continue
			}
			c.metrics.misses.Add(1)
			store(c, &sampledRuns, keys[i], rs[j])
			e.val = rs[j]
			close(e.ready)
			own[i] = nil
		}
	}
	for i := range cells {
		if taken[i] {
			if out[i], err = c.RunSampledCtx(ctx, cells[i].Prog, input, cells[i].Cfg, sc); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
