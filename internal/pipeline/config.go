// Package pipeline implements a cycle-level model of the baseline
// out-of-order processor of Table 1 and its diverge-merge (DMP) extension.
//
// The model is execution-trace-driven with wrong-path synthesis: the correct
// execution path comes from the functional emulator, consumed lazily; when
// the front end mispredicts (or fetches the second path of a dynamically
// predicated branch), the model fetches wrong-path instructions by walking
// the static code with the real predictor, so that wrong-path fetch, window
// occupancy and issue-bandwidth pollution are modelled. Instruction timing
// uses dispatch-time dataflow scheduling: each instruction's issue and
// completion cycles are computed when it enters the window, subject to
// operand readiness (per-register ready times), issue bandwidth, cache
// latencies and store-to-load forwarding.
//
// Modelled DMP behaviour (Kim et al., MICRO-39 / CGO 2007): dpred-mode entry
// on low-confidence (or short-hammock) diverge branches, dual-path fetch
// with per-path renaming (per-path register ready tables), CFM-point
// detection including return CFMs, select-µop insertion at merge, predicated
// loop iterations with early-/late-/no-exit outcomes, and flush avoidance
// when a dynamically predicated branch would have mispredicted.
package pipeline

import (
	"dmp/internal/cache"
	"dmp/internal/trace"
)

// CacheGeom is one cache level's geometry as the machine configuration
// carries it: kilobyte capacity, associativity and hit latency. Line size is
// hierarchy-wide (Config.LineBytes). All three fields participate in the
// canonical configuration and therefore in simulation-cache keys.
type CacheGeom struct {
	SizeKB    int
	Ways      int
	HitCycles int
}

// Config holds the machine configuration (defaults are Table 1). The struct
// is JSON-serializable (the sweep engine builds grids of Configs from user
// JSON); every simulation-relevant field participates in AppendCanonical,
// which TestCanonicalCoversEveryField enforces by reflection.
type Config struct {
	// FetchWidth is instructions fetched per cycle (8).
	FetchWidth int
	// MaxNotTakenBr is the number of not-taken conditional branches fetch
	// can pass per cycle (3).
	MaxNotTakenBr int
	// IssueWidth is instructions issued (and dispatched/renamed) per cycle.
	IssueWidth int
	// RetireWidth is instructions retired per cycle.
	RetireWidth int
	// ROBSize is the reorder-buffer capacity (512).
	ROBSize int
	// FetchQSize is the decoupling queue between fetch and rename.
	FetchQSize int
	// FrontEndDelay is the fetch-to-rename depth in cycles.
	FrontEndDelay int
	// MinMispPenalty is the minimum branch misprediction penalty (25).
	MinMispPenalty int

	// Branch predictor (perceptron) parameters.
	PerceptronTables int
	PerceptronHist   int
	BTBEntries       int
	RASDepth         int

	// Confidence estimator parameters (enhanced JRS).
	ConfEntries   int
	ConfHistBits  int
	ConfThreshold uint8

	// DMP enables dynamic predication (requires annotated binary).
	DMP bool
	// DpredFeedback enables the run-time usefulness feedback extension: a
	// per-branch table throttles dpred entry for branches whose sessions
	// almost never avoid a misprediction (the paper's future-work item).
	DpredFeedback bool
	// PredicateRegs bounds concurrent predicates in a loop dpred session (32).
	PredicateRegs int

	// MaxInsts bounds the simulated trace length (0 = run to completion).
	MaxInsts uint64

	// Latencies per operation class.
	LatALU, LatMul, LatDiv int

	// Memory-hierarchy geometry (Table 1: 64KB/2-way/2-cycle L1I,
	// 64KB/4-way/2-cycle L1D, 1MB/8-way/10-cycle shared L2, 64-byte lines,
	// 340-cycle memory). Set counts must come out a power of two
	// (Validate checks), since the cache index is a mask.
	ICache, DCache, L2 CacheGeom
	// LineBytes is the hierarchy-wide cache line size.
	LineBytes int
	// MemLatency is the main-memory latency behind the L2, in cycles.
	MemLatency int

	// WatchdogCycles aborts the simulation if no instruction retires for
	// this many cycles (a model bug, not a program property).
	WatchdogCycles int64

	// Tracer receives structured pipeline events (internal/trace): fetch
	// breaks, flushes, dpred-session lifecycle and loop-predication
	// outcomes. nil disables tracing; every emission site nil-checks the
	// hook so the default path adds no work to the hot loop. The tracer is
	// excluded from the canonical configuration (AppendCanonical), and the
	// memoization layer bypasses its cache for traced runs — a cached
	// answer would silently emit no events. It is likewise excluded from
	// the JSON form: a sweep grid cell cannot carry a hook.
	Tracer trace.Tracer `json:"-"`
}

// DefaultConfig returns the Table 1 machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:       8,
		MaxNotTakenBr:    3,
		IssueWidth:       8,
		RetireWidth:      8,
		ROBSize:          512,
		FetchQSize:       64,
		FrontEndDelay:    20,
		MinMispPenalty:   25,
		PerceptronTables: 256,
		PerceptronHist:   64,
		BTBEntries:       4096,
		RASDepth:         64,
		ConfEntries:      4096,
		ConfHistBits:     12,
		ConfThreshold:    14,
		PredicateRegs:    32,
		LatALU:           1,
		LatMul:           4,
		LatDiv:           12,
		ICache:           CacheGeom{SizeKB: 64, Ways: 2, HitCycles: 2},
		DCache:           CacheGeom{SizeKB: 64, Ways: 4, HitCycles: 2},
		L2:               CacheGeom{SizeKB: 1024, Ways: 8, HitCycles: 10},
		LineBytes:        64,
		MemLatency:       cache.MemoryLatency,
		WatchdogCycles:   2_000_000,
	}
}

// hierConfig translates the configuration's cache geometry into the cache
// package's hierarchy form.
func (c Config) hierConfig() cache.HierarchyConfig {
	lvl := func(name string, g CacheGeom) cache.Config {
		return cache.Config{Name: name, SizeBytes: g.SizeKB << 10, Ways: g.Ways,
			LineBytes: c.LineBytes, HitCycles: g.HitCycles}
	}
	return cache.HierarchyConfig{
		I:          lvl("L1I", c.ICache),
		D:          lvl("L1D", c.DCache),
		L2:         lvl("L2", c.L2),
		MemLatency: c.MemLatency,
	}
}

// WarmKey is the part of a Config that shapes the functionally warmed
// state: predictor, confidence, BTB and RAS sizes and the cache geometry.
// Latencies and thresholds stay out, since warming never reads them, so the
// configurations of a sweep that share a key can run their sampled intervals
// from one warm walk (NewWarm).
type WarmKey struct {
	PerceptronTables, PerceptronHist int
	ConfEntries, ConfHistBits        int
	BTBEntries, RASDepth             int
	ICacheKB, ICacheWays             int
	DCacheKB, DCacheWays             int
	L2KB, L2Ways                     int
	LineBytes                        int
}

// WarmKey returns the configuration's warm-state key.
func (c Config) WarmKey() WarmKey {
	return WarmKey{
		PerceptronTables: c.PerceptronTables, PerceptronHist: c.PerceptronHist,
		ConfEntries: c.ConfEntries, ConfHistBits: c.ConfHistBits,
		BTBEntries: c.BTBEntries, RASDepth: c.RASDepth,
		ICacheKB: c.ICache.SizeKB, ICacheWays: c.ICache.Ways,
		DCacheKB: c.DCache.SizeKB, DCacheWays: c.DCache.Ways,
		L2KB: c.L2.SizeKB, L2Ways: c.L2.Ways,
		LineBytes: c.LineBytes,
	}
}

// Stats aggregates the simulation counters.
type Stats struct {
	// Cycles is the total execution time.
	Cycles int64
	// Retired counts architecturally useful retired instructions (the
	// functional trace length actually consumed).
	Retired uint64
	// SelectUops counts inserted select-µops.
	SelectUops uint64
	// Nopped counts predicated-FALSE instructions that retired as NOPs.
	Nopped uint64
	// WrongPathFetched counts fetched wrong-path instructions (squashed or
	// NOPped).
	WrongPathFetched uint64
	// Fetched counts all fetched instructions.
	Fetched uint64
	// Flushes counts pipeline flushes due to branch mispredictions.
	Flushes uint64
	// CondBranches / Mispredicted count retired conditional branches and how
	// many the direction predictor got wrong (whether or not they flushed).
	CondBranches uint64
	Mispredicted uint64
	// DpredEntries / DpredLoopEntries count dpred-mode activations.
	DpredEntries     uint64
	DpredLoopEntries uint64
	// DpredMerged counts dpred sessions that reached a CFM on both paths.
	DpredMerged uint64
	// DpredNoMerge counts sessions ended by branch resolution before merge.
	DpredNoMerge uint64
	// DpredSavedFlushes counts mispredicted diverge branches whose flush was
	// avoided by dynamic predication.
	DpredSavedFlushes uint64
	// DpredInnerFlush counts dpred sessions cancelled by an inner
	// misprediction.
	DpredInnerFlush uint64
	// DpredThrottled counts dpred entries suppressed by usefulness feedback.
	DpredThrottled uint64
	// Loop outcome counters (Section 5.1 cases).
	LoopLateExit  uint64
	LoopEarlyExit uint64
	LoopNoExit    uint64
	// ConfPVN and ConfCoverage report the realised confidence-estimator
	// accuracy and coverage.
	ConfPVN      float64
	ConfCoverage float64
	// Cache statistics.
	ICache, DCache, L2 cache.Stats
	// Audit is the per-branch dpred-session audit table, sorted by branch
	// address: sessions entered, how each ended (merge, dual-path
	// fallback, flush cancellation, loop outcomes), flushes avoided and
	// dpred cycles wasted. Always collected — its cost is per session, not
	// per instruction — and reproducible offline from a captured event
	// stream (internal/trace.AuditBuilder).
	Audit []trace.BranchAudit `json:"Audit,omitempty"`
}

// AuditTotals sums the session audit table.
func (s Stats) AuditTotals() trace.AuditTotals { return trace.Totals(s.Audit) }

// Degenerate reports a run that retired no instructions (e.g. MaxInsts
// smaller than the warm-up), whose per-kilo-instruction metrics are
// meaningless: they return 0 by convention and callers should surface a
// diagnostic rather than average the zeros silently.
func (s Stats) Degenerate() bool { return s.Retired == 0 }

// IPC returns useful instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MPKI returns retired branch mispredictions per kilo-instruction.
func (s Stats) MPKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Mispredicted) * 1000 / float64(s.Retired)
}

// FlushesPerKI returns pipeline flushes per kilo-instruction (Figure 6's
// metric).
func (s Stats) FlushesPerKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Flushes) * 1000 / float64(s.Retired)
}
