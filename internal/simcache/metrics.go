package simcache

import (
	"sync/atomic"
	"time"

	"dmp/internal/sample"
)

// Metrics holds the cache's internal atomic counters.
type Metrics struct {
	hits       atomic.Uint64
	dedups     atomic.Uint64
	diskHits   atomic.Uint64
	misses     atomic.Uint64
	bypasses   atomic.Uint64
	cancels    atomic.Uint64
	sampled    atomic.Uint64
	simWallNS  atomic.Int64
	sampWallNS atomic.Int64
	simCycles  atomic.Int64
	simInsts   atomic.Uint64
}

// ran adds one executed group of runs under sc to the throughput counters.
// A group runs under one conf, so its wall time is wholly exact or wholly
// sampled: it lands in SimWall, and in SampledWall as well when sc sampled
// it. Exact runs add the cycles and instructions they simulated; sampled
// runs, whose estimated cycles the pipeline never simulated, only count.
func (m *Metrics) ran(sc sample.SampleConf, rs []sample.Result, wall time.Duration) {
	m.simWallNS.Add(int64(wall))
	if sc.Enabled {
		m.sampWallNS.Add(int64(wall))
		m.sampled.Add(uint64(len(rs)))
		return
	}
	for _, r := range rs {
		m.simCycles.Add(r.Full.Cycles)
		m.simInsts.Add(r.Full.Retired)
	}
}

func (m *Metrics) snapshot() Snapshot {
	return Snapshot{
		Hits:        m.hits.Load(),
		Dedups:      m.dedups.Load(),
		DiskHits:    m.diskHits.Load(),
		Misses:      m.misses.Load(),
		Bypasses:    m.bypasses.Load(),
		Cancels:     m.cancels.Load(),
		Sampled:     m.sampled.Load(),
		SimWall:     time.Duration(m.simWallNS.Load()),
		SampledWall: time.Duration(m.sampWallNS.Load()),
		SimCycles:   m.simCycles.Load(),
		SimInsts:    m.simInsts.Load(),
	}
}

// Snapshot is a point-in-time copy of the cache counters, JSON-encodable for
// the -metrics-json flag.
type Snapshot struct {
	// Hits counts requests answered from the in-memory layer.
	Hits uint64 `json:"hits"`
	// Dedups counts requests that blocked on an identical in-flight
	// simulation instead of running their own copy.
	Dedups uint64 `json:"dedups"`
	// DiskHits counts requests answered from the persistent layer.
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts simulations actually executed. A run that fails or
	// is cancelled memoizes nothing and counts in no lookup counter.
	Misses uint64 `json:"misses"`
	// Bypasses counts traced simulations that skipped memoization (a
	// cached answer would emit no events); they execute every time.
	Bypasses uint64 `json:"bypasses"`
	// Cancels counts runs aborted by context cancellation. Like a run that
	// fails, a cancelled run is evicted, never memoized, and excluded from
	// every other counter, SimWall included.
	Cancels uint64 `json:"cancels,omitempty"`
	// Sampled counts simulations executed under an enabled sampling conf
	// (a subset of Misses, plus traced bypass runs), exact fallbacks
	// included. Their wall time lands in SimWall and SampledWall but their
	// cycles never enter SimCycles — that counter means cycles of
	// full-fidelity runs.
	Sampled uint64 `json:"sampled,omitempty"`
	// SimWall is the aggregate wall time of the executed runs that
	// returned a result; failed and cancelled runs add nothing.
	SimWall time.Duration `json:"sim_wall_ns"`
	// SampledWall is the part of SimWall spent in runs under an enabled
	// sampling conf; the rest is the full-fidelity runs' wall time.
	SampledWall time.Duration `json:"sampled_wall_ns,omitempty"`
	// SimCycles is the total simulated cycles across executed
	// full-fidelity runs.
	SimCycles int64 `json:"sim_cycles"`
	// SimInsts is the total retired instructions across executed
	// full-fidelity runs (cache-answered runs excluded: the denominator of
	// real throughput).
	SimInsts uint64 `json:"sim_insts"`
}

// Requests returns the total number of cache lookups.
func (s Snapshot) Requests() uint64 { return s.Hits + s.Dedups + s.DiskHits + s.Misses }

// HitRate returns the fraction of requests served without executing a
// simulation.
func (s Snapshot) HitRate() float64 {
	total := s.Requests()
	if total == 0 {
		return 0
	}
	return float64(total-s.Misses) / float64(total)
}

// CyclesPerSec returns the simulator throughput in simulated cycles per
// wall-clock second over the executed full-fidelity runs.
func (s Snapshot) CyclesPerSec() float64 {
	if w := s.SimWall - s.SampledWall; w > 0 {
		return float64(s.SimCycles) / w.Seconds()
	}
	return 0
}

// KIPS returns the simulator throughput in simulated kilo-instructions per
// wall-clock second over the executed full-fidelity runs.
func (s Snapshot) KIPS() float64 {
	if w := s.SimWall - s.SampledWall; w > 0 {
		return float64(s.SimInsts) / 1000 / w.Seconds()
	}
	return 0
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Hits:        s.Hits - prev.Hits,
		Dedups:      s.Dedups - prev.Dedups,
		DiskHits:    s.DiskHits - prev.DiskHits,
		Misses:      s.Misses - prev.Misses,
		Bypasses:    s.Bypasses - prev.Bypasses,
		Cancels:     s.Cancels - prev.Cancels,
		Sampled:     s.Sampled - prev.Sampled,
		SimWall:     s.SimWall - prev.SimWall,
		SampledWall: s.SampledWall - prev.SampledWall,
		SimCycles:   s.SimCycles - prev.SimCycles,
		SimInsts:    s.SimInsts - prev.SimInsts,
	}
}
