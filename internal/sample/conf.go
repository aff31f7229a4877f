// Package sample implements SMARTS-style sampled simulation: short detailed
// intervals (warmup + measurement) run through the cycle-level pipeline
// model, separated by functional warming on the predecoded emulator. One
// functional walk (pipeline.Warm) keeps the microarchitectural state —
// caches, BTB, global history and RAS throughout, the branch predictor and
// confidence estimator over each interval's lead-in — warm through the
// whole stream. Each interval runs in detail from that state, and its
// changes are rolled back, so nothing the detailed pipeline does feeds back
// into the walk, and every configuration that shares the table geometry
// runs its intervals from the same walk (RunCells). An interval's detailed
// warmup re-trains what functional warming leaves out: wrong-path effects
// and the pipeline's speculative state.
//
// The per-interval CPIs form the statistical estimate: their mean scales the
// program's instruction count into an estimated cycle total, and their
// Student-t confidence interval is the error bar every consumer must carry.
// The full-fidelity pipeline run stays the reference — sampling is an
// estimator whose error is measured (the dmpbench -exp sample-error gate),
// never assumed.
package sample

import (
	"cmp"
	"fmt"
)

// SampleConf configures the sampling executor. The zero value means "no
// sampling"; DefaultConf returns the tuned defaults the evaluation gates
// run at, and every zero field of an enabled conf means DefaultConf's value
// (Normalize). The struct is serializable (JSON for job specs and
// -metrics-json, AppendCanonical for simulation-cache keys): two runs with
// equal canonical forms produce identical Results, so the conf participates
// in memoization keys exactly like pipeline.Config does.
type SampleConf struct {
	// Enabled turns sampling on; a disabled conf runs every simulation
	// exact, at full fidelity.
	Enabled bool `json:"enabled"`
	// Interval is the measured length of each detailed interval, in
	// on-trace instructions.
	Interval uint64 `json:"interval"`
	// Warmup is the detailed-warmup length preceding each measurement, in
	// on-trace instructions. It fills the pipeline from the functionally
	// warmed state and re-trains what functional warming leaves out.
	Warmup uint64 `json:"warmup"`
	// Period is the distance between interval starts, in instructions; the
	// fraction (Warmup+Interval)/Period is the detailed-simulation share of
	// the run. Must satisfy Period >= Warmup+Interval.
	Period uint64 `json:"period"`
	// Seed randomises interval placement: the program is tiled into
	// Period-length strata and each stratum's interval lands at a
	// seed-derived offset within it (stratified random sampling). Pure
	// systematic placement — one global offset, constant spacing — aliases
	// against periodic program behaviour, which measurably produces
	// confident wrong estimates on phase-heavy workloads; per-stratum
	// jitter keeps the spacing near-systematic while breaking the
	// resonance.
	Seed uint64 `json:"seed"`
	// Confidence is the two-sided level of the reported interval (0 means
	// the 0.95 default).
	Confidence float64 `json:"confidence,omitempty"`
	// PredLead is the predictor-training tail of each functional
	// fast-forward, in instructions: the last PredLead instructions before
	// a detailed interval, and the interval itself, warm the branch
	// predictor and confidence estimator in addition to the always-warmed
	// caches/BTB/history/RAS (0 = the 20_000 default). Per-branch predictor training is the most
	// expensive warming operation, and the predictor tables re-converge
	// over tens of thousands of instructions, so training through the whole
	// skip buys nothing over training through its tail.
	PredLead uint64 `json:"pred_lead,omitempty"`
	// MinIntervals is the minimum number of intervals worth sampling: a
	// program too short for that many falls back to one exact full-fidelity
	// run (Result.Exact), because a two-interval estimate is noise with
	// error bars wider than the run is long.
	MinIntervals int `json:"min_intervals,omitempty"`
}

// DefaultConf returns the tuned sampling configuration: 2k-instruction
// measured intervals behind 2k of detailed warmup every 90k instructions
// (4.4% detailed share), functional warming everywhere in between with a
// 20k-instruction predictor-training tail, 95% confidence. The tuning is
// pinned by the dmpbench -exp sample-error gate: every corpus aggregate must
// land inside its reported error bar.
func DefaultConf() SampleConf {
	return SampleConf{
		Enabled:      true,
		Interval:     2000,
		Warmup:       2000,
		Period:       90_000,
		Seed:         1,
		PredLead:     20_000,
		Confidence:   0.95,
		MinIntervals: 8,
	}
}

// Normalize returns the conf in the form RunCells executes and
// AppendCanonical keys on: a disabled conf becomes the zero conf, since none
// of its fields affects a run, and every zero field of an enabled conf takes
// DefaultConf's value. Consumers that display or compare confs should
// normalize first.
func (c SampleConf) Normalize() SampleConf {
	if !c.Enabled {
		return SampleConf{}
	}
	d := DefaultConf()
	c.Interval = cmp.Or(c.Interval, d.Interval)
	c.Warmup = cmp.Or(c.Warmup, d.Warmup)
	c.Period = cmp.Or(c.Period, d.Period)
	c.Seed = cmp.Or(c.Seed, d.Seed)
	c.Confidence = cmp.Or(c.Confidence, d.Confidence)
	c.PredLead = cmp.Or(c.PredLead, d.PredLead)
	c.MinIntervals = cmp.Or(c.MinIntervals, d.MinIntervals)
	return c
}

// Validate checks the conf in its normalized form, the one RunCells runs:
// a zero field of an enabled conf has taken its default, so a conf is valid
// exactly when a run accepts it. A disabled conf is always valid.
func (c SampleConf) Validate() error {
	c = c.Normalize()
	if !c.Enabled {
		return nil
	}
	switch {
	case c.Period < c.Warmup+c.Interval:
		return fmt.Errorf("sample: period %d shorter than warmup+interval %d", c.Period, c.Warmup+c.Interval)
	case c.Confidence < 0 || c.Confidence >= 1:
		return fmt.Errorf("sample: confidence %v outside (0, 1)", c.Confidence)
	case c.MinIntervals < 0:
		return fmt.Errorf("sample: min_intervals must be >= 0")
	}
	return nil
}

// AppendCanonical appends a deterministic rendering of the configuration to
// dst, mirroring pipeline.Config.AppendCanonical: every field participates,
// so adding a field changes the canonical form and invalidates stale cache
// entries keyed on it. Defaults are resolved first, so an explicit 0.95
// confidence and an implied one key identically.
func (c SampleConf) AppendCanonical(dst []byte) []byte {
	return fmt.Appendf(dst, "%+v", c.Normalize())
}

// offAt derives stratum k's interval offset in [0, span) from the seed
// (splitmix64 finalizer over seed and stratum index, so consecutive strata
// and consecutive seeds give unrelated offsets). span is the stratum's
// placement slack: period - warmup - interval + 1 for a full stratum.
func (c SampleConf) offAt(k, span uint64) uint64 {
	z := c.Seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z % span
}
