package static

// Estimate-accuracy metrics: how close a static estimate came to a measured
// reference profile, in the two dimensions the selection algorithms actually
// consume — per-branch taken probabilities (bias error) and relative block
// frequencies (rank correlation; the absolute scale is arbitrary, only the
// ordering of hot and cold code matters to the cost models).

import (
	"math"

	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/stats"
)

// Accuracy summarises an estimate-vs-reference comparison.
type Accuracy struct {
	// Branches is the number of branches compared (those executed in the
	// reference).
	Branches int `json:"branches"`
	// MeanBias is the mean |estimated - measured| taken probability over
	// those branches.
	MeanBias float64 `json:"mean_bias"`
	// WeightedBias weights each branch's bias by its measured execution
	// count, so hot branches dominate as they do in the cost models.
	WeightedBias float64 `json:"weighted_bias"`
	// Blocks is the number of blocks entering the rank correlation (those
	// executed in either profile).
	Blocks int `json:"blocks"`
	// RankCorr is the Spearman rank correlation between estimated and
	// measured block execution counts.
	RankCorr float64 `json:"rank_corr"`
}

// CompareProfiles measures est (typically a synthesized estimate) against
// ref (a measured profile of the same program).
func CompareProfiles(p *isa.Program, est, ref *profile.Profile) Accuracy {
	var a Accuracy
	var wsum, wtot float64
	var estC, refC []float64
	for _, fa := range cfg.Shared(p).Funcs {
		if fa.Err != nil {
			continue // a broken function never got estimated either
		}
		g := fa.Graph
		for _, b := range g.Blocks {
			ev, rv := est.BlockCount(g, b.ID), ref.BlockCount(g, b.ID)
			if ev == 0 && rv == 0 {
				continue
			}
			estC = append(estC, float64(ev))
			refC = append(refC, float64(rv))
			brPC := b.End - 1
			if !p.Code[brPC].IsCondBranch() {
				continue
			}
			w := float64(ref.BranchExec(brPC))
			if w == 0 {
				continue
			}
			bias := math.Abs(est.TakenProb(brPC) - ref.TakenProb(brPC))
			a.Branches++
			a.MeanBias += bias
			wsum += bias * w
			wtot += w
		}
	}
	if a.Branches > 0 {
		a.MeanBias /= float64(a.Branches)
	}
	if wtot > 0 {
		a.WeightedBias = wsum / wtot
	}
	a.Blocks = len(estC)
	a.RankCorr = stats.Spearman(estC, refC)
	return a
}
