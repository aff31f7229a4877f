package sample

import (
	"bytes"
	"encoding/json"
	"sync"

	"dmp/internal/pipeline"
	"dmp/internal/stats"
)

// Result is the outcome of one sampled simulation: the population estimate
// (mean CPI over the measured intervals, scaled to the program's full
// instruction count) plus the error bar that makes the estimate honest. A
// run under a disabled conf, and a program too short to sample, carries the
// exact full-fidelity Stats instead (Exact set, error bar zero).
type Result struct {
	// Conf is the configuration the run sampled at (defaults resolved).
	Conf SampleConf `json:"conf"`

	// Exact marks a full-fidelity run: the conf was disabled, or the
	// program was shorter than Conf.MinIntervals periods, so Full holds the
	// exact Stats and the estimate fields below restate it with a zero
	// error bar.
	Exact bool `json:"exact,omitempty"`
	// Full is the exact statistics of an Exact run (nil otherwise).
	Full *pipeline.Stats `json:"full,omitempty"`

	// Period is the effective inter-interval spacing the run used: the
	// configured one, or a proportionally shrunk one for a program too
	// short to fit Conf.MinIntervals at the configured spacing.
	Period uint64 `json:"period,omitempty"`
	// TotalInsts is the program's full dynamic instruction count (bounded
	// by Config.MaxInsts) — the N the per-interval estimate scales to.
	TotalInsts uint64 `json:"total_insts"`
	// Intervals / Complete / Degenerate count scheduled intervals, windows
	// that closed at full measurement length, and zero-retirement windows
	// (excluded from the estimate, surfaced here).
	Intervals  int `json:"intervals"`
	Complete   int `json:"complete"`
	Degenerate int `json:"degenerate,omitempty"`
	// DetailedInsts is the number of instructions simulated in detail
	// (warmup + measured, all intervals); WarmInsts is the number
	// fast-forwarded with functional warming (the skips that lead up to an
	// interval). The remainder of TotalInsts ran on the block-batched
	// functional path with no microarchitectural bookkeeping at all.
	DetailedInsts uint64 `json:"detailed_insts"`
	WarmInsts     uint64 `json:"warm_insts"`

	// MeanCPI and SECPI are the mean and standard error of the
	// per-interval cycles-per-instruction sample.
	MeanCPI float64 `json:"mean_cpi"`
	SECPI   float64 `json:"se_cpi"`
	// IPCErr is the half-width of the two-sided confidence interval on the
	// IPC estimate at Conf.Confidence (delta method: SECPI scaled by the
	// t critical value and 1/MeanCPI²). Zero for Exact runs.
	IPCErr float64 `json:"ipc_err"`
	// Unbounded marks an estimate with fewer than two usable intervals:
	// no spread estimate exists, so the true confidence interval is
	// unbounded and IPCErr is meaningless (reported as 0, flagged here).
	Unbounded bool `json:"unbounded,omitempty"`

	// Window totals across usable intervals, the numerators of the scaled
	// per-kilo-instruction estimates.
	WinRetired uint64 `json:"win_retired"`
	WinCycles  int64  `json:"win_cycles"`
	WinMisp    uint64 `json:"win_misp"`
	WinCondBr  uint64 `json:"win_cond_br"`
	WinFlushes uint64 `json:"win_flushes"`

	// EstCycles is the estimated full-run cycle count: TotalInsts×MeanCPI.
	EstCycles int64 `json:"est_cycles"`
}

// IPC returns the estimated instructions per cycle. Exact results report
// the full run's own ratio: 1/(Cycles/Retired) and Retired/Cycles round
// differently in floating point, and an exact result's confidence interval
// is a single point, so the ulp would read as a coverage miss.
func (r Result) IPC() float64 {
	if r.Exact && r.Full != nil {
		return r.Full.IPC()
	}
	if r.MeanCPI == 0 {
		return 0
	}
	return 1 / r.MeanCPI
}

// RelErr returns the confidence-interval half-width as a fraction of the
// IPC estimate (0 for exact runs).
func (r Result) RelErr() float64 {
	ipc := r.IPC()
	if ipc == 0 {
		return 0
	}
	return r.IPCErr / ipc
}

// Covers reports whether v lies inside the result's confidence interval
// around the IPC estimate. Unbounded estimates cover everything (that is
// what an unbounded error bar means); callers who need a usable bound must
// check Unbounded separately.
func (r Result) Covers(v float64) bool {
	if r.Unbounded {
		return true
	}
	ipc := r.IPC()
	return v >= ipc-r.IPCErr && v <= ipc+r.IPCErr
}

// AsStats projects the estimate into a pipeline.Stats so that every
// IPC/MPKI/flush-rate consumer (tables, improvement computations, footers)
// works unchanged on sampled runs: Cycles and the branch counters are the
// scaled estimates, Retired is the true instruction count. Exact results
// return the full Stats as-is. A run with no usable window returns the zero
// Stats, whose Degenerate() flag tells consumers the estimate is void.
func (r Result) AsStats() pipeline.Stats {
	if r.Exact && r.Full != nil {
		return *r.Full
	}
	if r.WinRetired == 0 {
		return pipeline.Stats{}
	}
	scale := float64(r.TotalInsts) / float64(r.WinRetired)
	return pipeline.Stats{
		Cycles:       r.EstCycles,
		Retired:      r.TotalInsts,
		Mispredicted: scaleCount(r.WinMisp, scale),
		CondBranches: scaleCount(r.WinCondBr, scale),
		Flushes:      scaleCount(r.WinFlushes, scale),
	}
}

func scaleCount(n uint64, scale float64) uint64 {
	return uint64(float64(n)*scale + 0.5)
}

// Schema returns a short stable fingerprint of the Result wire shape,
// folded into simulation-cache keys (and the on-disk layout) so extending
// Result turns stale sampled entries into misses instead of silently
// zero-filled decodes.
func Schema() string {
	schemaOnce.Do(func() { schemaHex = pipeline.SchemaOf(Result{}) })
	return schemaHex
}

var (
	schemaOnce sync.Once
	schemaHex  string
)

// MarshalResult encodes a Result for the on-disk cache layer.
func MarshalResult(r Result) ([]byte, error) { return json.Marshal(r) }

// UnmarshalResult decodes a Result previously encoded with MarshalResult,
// rejecting unknown fields so entries written by a newer shape read as
// misses rather than silent truncations.
func UnmarshalResult(b []byte) (Result, error) {
	var r Result
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// aggregate folds per-interval results into the estimate fields of r.
// Usable intervals are the complete, non-degenerate ones; incomplete or
// zero-retirement windows are counted but never averaged (a partial tail
// would bias the CPI low or poison it with drain cycles).
func aggregate(r *Result, ivs []pipeline.IntervalResult) {
	cpis := make([]float64, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Degenerate() {
			r.Degenerate++
			continue
		}
		if !iv.Complete {
			continue
		}
		r.Complete++
		cpis = append(cpis, iv.CPI())
		r.WinRetired += iv.Retired
		r.WinCycles += iv.Cycles
		r.WinMisp += iv.Mispredicted
		r.WinCondBr += iv.CondBranches
		r.WinFlushes += iv.Flushes
	}
	r.Intervals = len(ivs)
	if len(cpis) == 0 {
		r.Unbounded = true
		return
	}
	r.MeanCPI = stats.Mean(cpis)
	r.SECPI = stats.StdErr(cpis)
	r.EstCycles = int64(float64(r.TotalInsts)*r.MeanCPI + 0.5)
	if len(cpis) < 2 {
		r.Unbounded = true
		return
	}
	t := stats.TCritical(r.Conf.Confidence, len(cpis)-1)
	// Delta method: Var(1/X) ≈ Var(X)/mean(X)^4.
	r.IPCErr = t * r.SECPI / (r.MeanCPI * r.MeanCPI)
	// Non-sampling bias budget: functional warming trains the predictors on
	// a clean outcome stream — no wrong-path history pollution — so windows
	// near the start of a run measure against optimistically warm state and
	// the estimate reads high. The effect is the cold-start transient's
	// share of the run: ~coldBiasInsts of training divided by the program
	// length. Negligible for corpus-scale programs (<3% at 1M insts), it
	// dominates the statistical term for short homogeneous loops, whose
	// windows barely vary. Widening the interval keeps Covers honest there.
	if r.TotalInsts > 0 && r.MeanCPI > 0 {
		r.IPCErr += coldBiasInsts / (r.MeanCPI * float64(r.TotalInsts))
	}
}

// coldBiasInsts is the systematic-error budget for functional warming: the
// approximate length, in instructions, of the cold-start transient whose
// cost sampled windows under-observe (perceptron and confidence tables
// training from scratch). Calibrated against full-fidelity differentials on
// generated programs of 100K-700K instructions, where the observed bias
// tracks ~30K/total.
const coldBiasInsts = 35_000
