package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dmp/internal/simcache"
	"dmp/internal/trace"
)

// procMallocs returns the process-wide cumulative heap-allocation count.
func procMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// poolCounters instruments the forEachIdx worker pool: aggregate wall time
// spent inside pool sections and aggregate busy time across workers. Their
// ratio (scaled by the parallelism bound) is the pool occupancy.
type poolCounters struct {
	busyNS atomic.Int64
	wallNS atomic.Int64
}

// enter marks the start of one pool section; the returned func closes it.
func (p *poolCounters) enter() func() {
	t0 := time.Now()
	return func() { p.wallNS.Add(int64(time.Since(t0))) }
}

// busy marks the start of one worker's task; the returned func closes it.
func (p *poolCounters) busy() func() {
	t0 := time.Now()
	return func() { p.busyNS.Add(int64(time.Since(t0))) }
}

// PoolMetrics reports worker-pool utilisation over a session.
type PoolMetrics struct {
	// Parallelism is the configured worker bound.
	Parallelism int `json:"parallelism"`
	// Busy is the aggregate time workers spent executing tasks.
	Busy time.Duration `json:"busy_ns"`
	// Wall is the aggregate wall time of all pool sections.
	Wall time.Duration `json:"wall_ns"`
}

// Occupancy returns the fraction of available worker-time actually used,
// in [0,1].
func (p PoolMetrics) Occupancy() float64 {
	if p.Wall <= 0 || p.Parallelism <= 0 {
		return 0
	}
	occ := float64(p.Busy) / (float64(p.Wall) * float64(p.Parallelism))
	if occ > 1 {
		occ = 1
	}
	return occ
}

// ExperimentMetric records one experiment's wall time.
type ExperimentMetric struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
}

// RunMetrics is the session-level metrics report surfaced by -metrics-json
// and the evaluation summary footer.
type RunMetrics struct {
	Experiments []ExperimentMetric `json:"experiments"`
	Cache       simcache.Snapshot  `json:"cache"`
	Pool        PoolMetrics        `json:"pool"`
	// DMPRuns counts DMP simulation results folded into Sessions (cache-
	// answered results included: the aggregate is over logical runs).
	DMPRuns uint64 `json:"dmp_runs"`
	// Sessions aggregates the per-branch dpred-session audit over every
	// DMP run of the session; Branches sums audited rows per run.
	Sessions trace.AuditTotals `json:"sessions"`
	// DegenerateRuns counts simulations that retired zero instructions
	// (e.g. MaxInsts below warm-up), whose per-kilo-instruction metrics
	// report 0 by convention; DegenerateBenchmarks names the affected
	// benchmarks.
	DegenerateRuns       uint64   `json:"degenerate_runs,omitempty"`
	DegenerateBenchmarks []string `json:"degenerate_benchmarks,omitempty"`
	// Sampling, present when the session ran in sampled mode, aggregates
	// the per-run SMARTS accounting: detailed-versus-fast-forwarded
	// instruction shares and the error-bar distribution.
	Sampling *SampleMetrics `json:"sampling,omitempty"`
	// ProcAllocs is the process-wide heap-allocation delta since the session
	// opened. It covers the harness as well as the simulator, which makes it
	// an honest (upper-bound) numerator for AllocsPerKI: the simulator's own
	// hot loop is allocation-free at steady state.
	ProcAllocs uint64 `json:"proc_allocs"`
}

// AllocsPerKI returns process heap allocations per simulated kilo-instruction
// actually executed (cache-answered runs contribute no instructions).
func (m RunMetrics) AllocsPerKI() float64 {
	if m.Cache.SimInsts == 0 {
		return 0
	}
	return float64(m.ProcAllocs) * 1000 / float64(m.Cache.SimInsts)
}

// NoteExperiment records one experiment's wall time for the metrics report.
func (s *Session) NoteExperiment(name string, wall time.Duration) {
	s.expMu.Lock()
	s.exps = append(s.exps, ExperimentMetric{Name: name, Wall: wall})
	s.expMu.Unlock()
}

// Metrics snapshots the session's run metrics.
func (s *Session) Metrics() RunMetrics {
	s.expMu.Lock()
	exps := append([]ExperimentMetric(nil), s.exps...)
	s.expMu.Unlock()
	s.runMu.Lock()
	var degen []string
	for name := range s.degenNames {
		degen = append(degen, name)
	}
	sort.Strings(degen)
	m := RunMetrics{
		Experiments:          exps,
		Cache:                s.Opts.Cache.Metrics(),
		DMPRuns:              s.dmpRuns,
		Sessions:             s.sessTotals,
		DegenerateRuns:       s.degenRuns,
		DegenerateBenchmarks: degen,
		Sampling:             s.sampleMetrics(),
	}
	s.runMu.Unlock()
	m.Pool = PoolMetrics{
		Parallelism: s.Opts.Parallelism,
		Busy:        time.Duration(s.pool.busyNS.Load()),
		Wall:        time.Duration(s.pool.wallNS.Load()),
	}
	m.ProcAllocs = procMallocs() - s.startMallocs
	return m
}

// WriteJSON writes the metrics report as indented JSON.
func (m RunMetrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Footer writes the human-readable summary appended to evaluation output:
// how many simulations actually ran versus were answered from cache, the
// full-fidelity simulator throughput (omitted when no exact instruction
// ran) and sampled wall time, and how busy the worker pool was kept.
func (m RunMetrics) Footer(w io.Writer) {
	fmt.Fprintln(w, "--- run metrics ---")
	c := m.Cache
	fmt.Fprintf(w, "simulations   %d executed, %d cache hits (%d in-flight, %d disk); hit rate %.1f%%\n",
		c.Misses, c.Hits+c.Dedups+c.DiskHits, c.Dedups, c.DiskHits, 100*c.HitRate())
	fmt.Fprintf(w, "sim wall      %v aggregate", c.SimWall.Round(time.Millisecond))
	if c.SimInsts > 0 {
		fmt.Fprintf(w, ", %.1fM simulated cycles/s, %.0f simulated KI/s", c.CyclesPerSec()/1e6, c.KIPS())
	}
	if c.SampledWall > 0 {
		fmt.Fprintf(w, ", %v sampled", c.SampledWall.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\nallocations   %d process-wide", m.ProcAllocs)
	if c.SimInsts > 0 {
		fmt.Fprintf(w, ", %.1f per simulated KI", m.AllocsPerKI())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "worker pool   %d workers, %.1f%% occupancy\n",
		m.Pool.Parallelism, 100*m.Pool.Occupancy())
	if sm := m.Sampling; sm != nil {
		fmt.Fprintf(w, "sampling      %d sampled runs (%d exact, %d unbounded); %.2f%% of %d MI detailed; CI ±%.2f%% mean, ±%.2f%% max\n",
			sm.Runs, sm.Exact, sm.Unbounded, sm.DetailedPct(), sm.TotalInsts/1_000_000,
			100*sm.MeanRelErr, 100*sm.MaxRelErr)
	}
	if len(m.Experiments) > 0 {
		fmt.Fprintf(w, "experiments  ")
		var total time.Duration
		for _, e := range m.Experiments {
			fmt.Fprintf(w, " %s=%v", e.Name, e.Wall.Round(time.Millisecond))
			total += e.Wall
		}
		fmt.Fprintf(w, " total=%v\n", total.Round(time.Millisecond))
	}
	if m.DMPRuns > 0 {
		t := m.Sessions
		fmt.Fprintf(w, "dpred audit   %d sessions over %d DMP runs: %d merged, %d fell back, %d cancelled by flush; %d flushes avoided, %d cycles wasted\n",
			t.Entered, m.DMPRuns, t.Merged, t.Fallback, t.FlushCancelled,
			t.SavedFlushes, t.WastedCycles)
	}
	if m.DegenerateRuns > 0 {
		fmt.Fprintf(w, "WARNING       %d run(s) retired zero instructions (%s); their per-KI metrics report 0\n",
			m.DegenerateRuns, strings.Join(m.DegenerateBenchmarks, ", "))
	}
}
