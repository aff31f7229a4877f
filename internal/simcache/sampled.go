package simcache

import (
	"context"
	"crypto/sha256"

	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// sampledKeySchema versions the sampled-entry key derivation. It folds in
// sample.Schema() — the fingerprint of the Result wire shape — so extending
// Result invalidates stale sampled entries the same way StatsSchema guards
// full-fidelity ones.
var sampledKeySchema = "dmp-simcache-sampled-v1\x00" + sample.Schema() + "\x00"

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
