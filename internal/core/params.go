// Package core implements the paper's contribution: profile-driven compiler
// algorithms that select diverge branches and control-flow merge (CFM)
// points for dynamic predication in a diverge-merge processor.
//
// It provides:
//
//   - Alg-exact (Section 3.2): simple/nested hammocks with exact CFM points
//     (immediate post-dominators);
//   - Alg-freq (Section 3.3): frequently-hammocks with approximate CFM
//     points from edge-profile-driven path enumeration, including CFM-chain
//     reduction (3.3.1);
//   - the short-hammock always-predicate heuristic (3.4);
//   - return CFM points (3.5);
//   - diverge loop branch heuristics (5.2);
//   - the analytical cost-benefit model (Section 4), with overhead
//     estimation by longest path (method 2) or edge-weighted average
//     (method 3);
//   - the five simple baseline selection algorithms of Section 7.2.
package core

import "dmp/internal/profile"

// OverheadMethod selects how N(dpred_insts) is estimated (Section 4.1.1).
type OverheadMethod int

const (
	// LongestPath is method 2: the longest possible path to the CFM.
	LongestPath OverheadMethod = 2
	// EdgeWeighted is method 3: the edge-profile-weighted average.
	EdgeWeighted OverheadMethod = 3
)

// Params controls diverge-branch selection.
type Params struct {
	// MaxInstr is MAX_INSTR: the per-path instruction bound.
	MaxInstr int
	// MaxCbr is MAX_CBR: the per-path conditional branch bound
	// (the paper uses MAX_INSTR/10).
	MaxCbr int
	// MinExecProb is MIN_EXEC_PROB: the edge-frequency floor followed
	// during path enumeration (0.001).
	MinExecProb float64
	// MinMergeProb is MIN_MERGE_PROB: the joint merge-probability floor for
	// approximate CFM points (heuristic mode).
	MinMergeProb float64
	// MaxCFM is the number of CFM points the ISA supports (3).
	MaxCFM int

	// EnableFreq enables Alg-freq (frequently-hammocks). Alg-exact alone is
	// the paper's "exact" configuration.
	EnableFreq bool
	// EnableShort enables the short-hammock always-predicate heuristic.
	EnableShort bool
	// ShortMaxInsts, ShortMinMergeProb, ShortMinMispRate are the 3.4
	// thresholds (10 instructions, 95% merge, 5% misprediction).
	ShortMaxInsts     int
	ShortMinMergeProb float64
	ShortMinMispRate  float64
	// EnableRetCFM enables return CFM points.
	EnableRetCFM bool
	// EnableLoops enables diverge loop branches.
	EnableLoops bool

	// Loop heuristics (Section 5.2).
	StaticLoopSize  int     // 30
	DynamicLoopSize float64 // 80
	LoopIter        float64 // 15

	// UseCostModel switches candidate filtering from the threshold
	// heuristics to the Section 4 cost-benefit analysis.
	UseCostModel bool
	// Method is the overhead-estimation method (2 or 3).
	Method OverheadMethod
	// AccConf is the assumed confidence-estimator accuracy (0.40).
	AccConf float64
	// MispPenalty is the machine misprediction penalty in cycles (25).
	MispPenalty float64
	// FetchWidth is the machine fetch width (8).
	FetchWidth float64

	// MinBranchExec skips branches executed fewer times during profiling
	// (engineering floor; the paper iterates over executed branches).
	MinBranchExec uint64
	// DisableChainReduction turns off Section 3.3.1's CFM-chain reduction
	// (ablation only; the paper always applies it).
	DisableChainReduction bool

	// TwoD, when set, enables the 2D-profiling extension (the paper's
	// Section 8.3 future-work item): branches that never show a meaningful
	// per-slice misprediction rate are excluded from selection, shrinking
	// the static annotation footprint without losing coverage.
	TwoD *profile.SliceProfile
	// TwoDMinRate is the per-slice misprediction-rate floor a branch must
	// reach in at least one slice to stay eligible (default 0.02).
	TwoDMinRate float64
}

// HeuristicParams returns the best-performing threshold configuration the
// paper reports (Section 7.1.1): MAX_INSTR=50, MAX_CBR=5,
// MIN_MERGE_PROB=1%, with all optimizations enabled.
func HeuristicParams() Params {
	return Params{
		MaxInstr:          50,
		MaxCbr:            5,
		MinExecProb:       0.001,
		MinMergeProb:      0.01,
		MaxCFM:            3,
		EnableFreq:        true,
		EnableShort:       true,
		ShortMaxInsts:     10,
		ShortMinMergeProb: 0.95,
		ShortMinMispRate:  0.05,
		EnableRetCFM:      true,
		EnableLoops:       true,
		StaticLoopSize:    30,
		DynamicLoopSize:   80,
		LoopIter:          15,
		AccConf:           0.40,
		MispPenalty:       25,
		FetchWidth:        8,
		MinBranchExec:     16,
	}
}

// CostParams returns the cost-benefit-model configuration (footnote 4:
// MAX_INSTR=200, MAX_CBR=20 define the analysis scope; no merge-probability
// threshold).
func CostParams(method OverheadMethod) Params {
	p := HeuristicParams()
	p.MaxInstr = 200
	p.MaxCbr = 20
	p.MinMergeProb = 0
	p.UseCostModel = true
	p.Method = method
	return p
}

// SelStats summarises a selection run (feeding Table 2 and the analyses).
type SelStats struct {
	// CandidatesConsidered counts profiled conditional branches examined.
	CandidatesConsidered int
	// Simple, Nested, Freq, Loop count selected diverge branches by CFG type.
	Simple int
	Nested int
	Freq   int
	Loop   int
	// Short counts always-predicate short hammocks among the selected.
	Short int
	// RetCFM counts selected branches with a return CFM point.
	RetCFM int
	// RejectedByCost counts candidates the cost model rejected.
	RejectedByCost int
	// RejectedByThreshold counts candidates the heuristics rejected.
	RejectedByThreshold int
	// Rejected2D counts branches excluded by the 2D-profiling filter.
	Rejected2D int
}

// Selected returns the total number of selected diverge branches.
func (s SelStats) Selected() int { return s.Simple + s.Nested + s.Freq + s.Loop }
