package sample

import (
	"math"
	"testing"

	"dmp/internal/pipeline"
)

func mkIv(retired uint64, cycles int64, complete bool) pipeline.IntervalResult {
	return pipeline.IntervalResult{Retired: retired, Cycles: cycles, Complete: complete}
}

// TestAggregateEmpty: no intervals at all — the estimate must be flagged
// unbounded, never silently zero-error.
func TestAggregateEmpty(t *testing.T) {
	r := Result{Conf: DefaultConf()}
	aggregate(&r, nil)
	if !r.Unbounded || r.Intervals != 0 || r.MeanCPI != 0 || r.IPCErr != 0 {
		t.Errorf("empty aggregate: %+v", r)
	}
}

// TestAggregateSingleInterval: one usable interval yields a point estimate
// but no spread, so the confidence interval is unbounded.
func TestAggregateSingleInterval(t *testing.T) {
	r := Result{Conf: DefaultConf(), TotalInsts: 100_000}
	aggregate(&r, []pipeline.IntervalResult{mkIv(2000, 5000, true)})
	if !r.Unbounded {
		t.Error("single interval must leave the CI unbounded")
	}
	if r.MeanCPI != 2.5 {
		t.Errorf("MeanCPI = %v, want 2.5", r.MeanCPI)
	}
	if r.IPCErr != 0 {
		t.Errorf("IPCErr = %v, want 0 (flagged unbounded instead)", r.IPCErr)
	}
	if r.EstCycles != 250_000 {
		t.Errorf("EstCycles = %d, want 250000", r.EstCycles)
	}
	if !r.Covers(123.0) {
		t.Error("unbounded estimates cover everything by definition")
	}
}

// TestAggregateDegenerate: zero-retirement windows are counted, surfaced and
// excluded — they carry no timing signal and would poison the mean as +Inf
// or NaN CPI.
func TestAggregateDegenerate(t *testing.T) {
	r := Result{Conf: DefaultConf(), TotalInsts: 100_000}
	ivs := []pipeline.IntervalResult{
		mkIv(2000, 4000, true),
		mkIv(0, 0, false), // trace ended before the warmup did
		mkIv(2000, 4200, true),
	}
	aggregate(&r, ivs)
	if r.Degenerate != 1 || r.Complete != 2 || r.Intervals != 3 {
		t.Errorf("counts: degenerate=%d complete=%d intervals=%d", r.Degenerate, r.Complete, r.Intervals)
	}
	if r.Unbounded {
		t.Error("two usable intervals should bound the estimate")
	}
	if math.IsNaN(r.MeanCPI) || math.IsInf(r.MeanCPI, 0) {
		t.Errorf("MeanCPI = %v", r.MeanCPI)
	}
	if want := (4000.0/2000 + 4200.0/2000) / 2; math.Abs(r.MeanCPI-want) > 1e-12 {
		t.Errorf("MeanCPI = %v, want %v", r.MeanCPI, want)
	}
}

// TestAggregateIncomplete: a window that closed short of its measurement
// length (interval shorter than the configured length, e.g. trace end) is
// recorded but not averaged — a partial window biases CPI.
func TestAggregateIncomplete(t *testing.T) {
	r := Result{Conf: DefaultConf(), TotalInsts: 100_000}
	ivs := []pipeline.IntervalResult{
		mkIv(2000, 4000, true),
		mkIv(500, 9000, false), // partial tail with pathological CPI
		mkIv(2000, 4000, true),
	}
	aggregate(&r, ivs)
	if r.Complete != 2 {
		t.Errorf("Complete = %d, want 2", r.Complete)
	}
	if r.MeanCPI != 2.0 {
		t.Errorf("MeanCPI = %v, want 2.0 (partial window must not contribute)", r.MeanCPI)
	}
	if r.WinRetired != 4000 {
		t.Errorf("WinRetired = %d, want 4000", r.WinRetired)
	}
}

// TestAggregateCI: the error bar must scale with the sample spread and cover
// the usual cases; identical intervals pin it at exactly zero.
func TestAggregateCI(t *testing.T) {
	r := Result{Conf: DefaultConf(), TotalInsts: 1_000_000}
	var ivs []pipeline.IntervalResult
	for i := 0; i < 8; i++ {
		ivs = append(ivs, mkIv(2000, 5000, true))
	}
	aggregate(&r, ivs)
	// Identical intervals carry zero statistical spread; what remains is
	// exactly the cold-start bias budget.
	bias := (1 / r.MeanCPI) * coldBiasInsts / float64(r.TotalInsts)
	if r.SECPI != 0 {
		t.Errorf("identical intervals: SECPI=%v, want 0", r.SECPI)
	}
	if math.Abs(r.IPCErr-bias) > 1e-12 {
		t.Errorf("identical intervals: IPCErr=%v, want bias budget %v", r.IPCErr, bias)
	}
	if r.Unbounded {
		t.Error("eight intervals must not be unbounded")
	}

	spread := Result{Conf: DefaultConf(), TotalInsts: 1_000_000}
	ivs = ivs[:0]
	for i := 0; i < 8; i++ {
		ivs = append(ivs, mkIv(2000, 4000+int64(i)*300, true))
	}
	aggregate(&spread, ivs)
	if spread.IPCErr <= 0 {
		t.Errorf("spread intervals: IPCErr=%v, want > 0", spread.IPCErr)
	}
	if !spread.Covers(spread.IPC()) {
		t.Error("estimate must cover its own center")
	}
}

// TestOffAtBounds: the per-stratum jitter stays inside the stratum's slack
// for every (k, span) shape, and actually varies across strata (a constant
// offset would reintroduce systematic aliasing).
func TestOffAtBounds(t *testing.T) {
	c := SampleConf{Seed: 1}
	for _, span := range []uint64{1, 2, 7, 86_001} {
		seen := map[uint64]bool{}
		for k := uint64(0); k < 200; k++ {
			off := c.offAt(k, span)
			if off >= span {
				t.Fatalf("offAt(%d, %d) = %d out of range", k, span, off)
			}
			seen[off] = true
		}
		if span > 100 && len(seen) < 50 {
			t.Errorf("span %d: only %d distinct offsets in 200 strata", span, len(seen))
		}
	}
}

// TestIntervalStartsNonOverlapping: placements are strictly increasing, at
// least warmup+interval apart, and always fit whole inside the program.
func TestIntervalStartsNonOverlapping(t *testing.T) {
	sc := DefaultConf()
	for _, total := range []uint64{100_000, 253_017, 1_424_999} {
		for seed := uint64(1); seed <= 5; seed++ {
			sc.Seed = seed
			starts := intervalStarts(sc, sc.Period, total)
			detail := sc.Warmup + sc.Interval
			for i, s := range starts {
				if s+detail > total {
					t.Fatalf("total=%d seed=%d: interval %d at %d overruns", total, seed, i, s)
				}
				if i > 0 && s < starts[i-1]+detail {
					t.Fatalf("total=%d seed=%d: interval %d at %d overlaps previous at %d",
						total, seed, i, s, starts[i-1])
				}
			}
			if want := int(total / sc.Period); len(starts) < want-1 || len(starts) > want+1 {
				t.Errorf("total=%d: %d starts for %d strata", total, len(starts), want)
			}
		}
	}
}

// TestTotalMemo: the count memo stores and recalls, and flushes wholesale at
// the cap instead of growing without bound.
func TestTotalMemo(t *testing.T) {
	defer ForgetCounts()
	// Distinct synthetic keys; real keys come from content hashing, which
	// TestSampledDeterministic exercises end to end.
	base := totalKey{progH: 0xabcdef, inputH: 42}
	totalMemo.Put(base, 1234)
	if v, ok := totalMemo.Load(base); !ok || v != 1234 {
		t.Fatalf("memo lookup after store: %v %v", v, ok)
	}
	for i := uint64(0); i < uint64(totalMemo.Cap)+10; i++ {
		totalMemo.Put(totalKey{progH: i, inputH: ^i}, i)
		if n := totalMemo.Len(); n > totalMemo.Cap {
			t.Fatalf("memo grew past cap: %d entries, cap %d", n, totalMemo.Cap)
		}
	}
}
