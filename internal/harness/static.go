package harness

// Three-way population comparison: how much of the profile-guided DMP win
// does a purely static compiler recover? Each generated program is selected
// three times with All-best-heur — from a static estimate (no tape), from the
// train-tape profile (the paper's setup), and from the run-tape profile (an
// input-identical oracle) — and all three DMP binaries are simulated on the
// run tape against one shared baseline. Results aggregate per dominant CFG
// idiom with static-vs-profile win/loss attribution through the dpred-session
// audit, alongside the estimate's accuracy metrics (per-branch bias error,
// block-frequency rank correlation vs the oracle profile).

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/static"
	"dmp/internal/stats"
	"dmp/internal/trace"
)

// Profile sources of the comparison, in report order.
const (
	SrcStatic = iota // static estimate, no input tape
	SrcTrain         // train-tape profile (the paper's profiling setup)
	SrcOracle        // run-tape profile (input-identical oracle)
	numSources
)

// SourceNames names the comparison's profile sources, indexed by Src*.
var SourceNames = [numSources]string{"static", "train", "oracle"}

// CompareResult is one program's three-way outcome.
type CompareResult struct {
	Name    string  `json:"name"`
	Preset  string  `json:"preset"`
	Idiom   string  `json:"idiom"`
	BaseIPC float64 `json:"base_ipc"`
	// IPC, DeltaPct and Annots are indexed by profile source (Src*).
	IPC      [numSources]float64 `json:"ipc"`
	DeltaPct [numSources]float64 `json:"delta_pct"`
	Annots   [numSources]int     `json:"annots"`
	Retired  uint64              `json:"retired"`
	// Audit is the static-selection DMP run's dpred-session audit: the
	// attribution trail for where static selection spends its sessions.
	Audit trace.AuditTotals `json:"audit"`
	// Acc measures the estimate against the oracle profile.
	Acc static.Accuracy `json:"accuracy"`
}

// CompareGroup aggregates one dominant-idiom class.
type CompareGroup struct {
	Idiom string `json:"idiom"`
	N     int    `json:"n"`
	// MeanDeltaPct and GeoDeltaPct are indexed by profile source.
	MeanDeltaPct [numSources]float64 `json:"mean_delta_pct"`
	GeoDeltaPct  [numSources]float64 `json:"geo_delta_pct"`
	// Wins/Loss/Flat classify the static-selection IPC delta per program
	// (same winThresholdPct band as the population report).
	Wins int `json:"wins"`
	Loss int `json:"losses"`
	Flat int `json:"flat"`
	// Recovered is the group's static mean delta as a fraction of the train
	// mean delta (NaN-guarded to 0 when train is ~0).
	Recovered float64 `json:"recovered"`
	// MeanBias / MeanWeightedBias / MeanRankCorr average the estimate
	// accuracy over the group.
	MeanBias         float64 `json:"mean_bias"`
	MeanWeightedBias float64 `json:"mean_weighted_bias"`
	MeanRankCorr     float64 `json:"mean_rank_corr"`
	// Retired/Audit aggregate the static-selection DMP runs.
	Retired uint64            `json:"retired"`
	Audit   trace.AuditTotals `json:"audit"`
}

// CompareReport is the full three-way population outcome.
type CompareReport struct {
	Count   int             `json:"count"`
	Algo    string          `json:"algo"`
	Results []CompareResult `json:"results"`
	Groups  []CompareGroup  `json:"groups"`
}

// RunPopulationCompare evaluates a generated corpus three ways under ctx
// (cancelled as RunPopulation is).
func RunPopulationCompare(ctx context.Context, progs []*gen.Program, opts Options) (*CompareReport, error) {
	opts = opts.withDefaults()
	rep := &CompareReport{Count: len(progs), Algo: "All-best-heur"}
	rep.Results = make([]CompareResult, len(progs))
	err := forEachProgram(ctx, progs, opts.Parallelism, func(i int) (err error) {
		rep.Results[i], err = runOneCompare(ctx, progs[i], opts.EvalOptions)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Groups = groupCompare(rep.Results)
	return rep, nil
}

// runOneCompare prepares one program as a Workload, whose train and run
// profiles are the train and oracle sources, selects a third time from the
// static estimate, and simulates the baseline and the three DMP binaries in
// one call. The cache answers a DMP cell whose annotations another source
// also selected.
func runOneCompare(ctx context.Context, p *gen.Program, opts EvalOptions) (CompareResult, error) {
	w, err := prepareWorkload(ctx, p.Name, compileSource(p.Source), p.RunInput, p.TrainInput, popEmuBudget, opts)
	if err != nil {
		return CompareResult{}, err
	}
	est, err := static.Analyze(w.Bare, static.Options{Program: p.Name + "/static"})
	if err != nil {
		return CompareResult{}, err
	}
	r := CompareResult{
		Name:   p.Name,
		Preset: p.Preset,
		Idiom:  p.Idiom,
		Acc:    static.CompareProfiles(w.Bare, est.Prof, w.ProfRun),
	}
	cells := []sample.Cell{opts.cell(w.Bare, false)}
	for src, prof := range [numSources]*profile.Profile{est.Prof, w.Train, w.ProfRun} {
		res, err := core.Select(w.Bare, prof, core.HeuristicParams())
		if err != nil {
			return r, fmt.Errorf("%s select: %w", SourceNames[src], err)
		}
		r.Annots[src] = len(res.Annots)
		cells = append(cells, opts.cell(w.Bare.WithAnnots(res.Annots), true))
	}
	sts, _, err := opts.simulate(ctx, w.RunInput, cells)
	if err != nil {
		return r, err
	}
	base := sts[0]
	r.BaseIPC = base.IPC()
	for src := range numSources {
		dmp := sts[1+src]
		r.IPC[src] = dmp.IPC()
		r.DeltaPct[src] = Improvement(base, dmp)
		if src == SrcStatic {
			r.Retired = dmp.Retired
			r.Audit = dmp.AuditTotals()
		}
	}
	return r, nil
}

func groupCompare(results []CompareResult) []CompareGroup {
	byIdiom := map[string]*CompareGroup{}
	ratios := map[string]*[numSources][]float64{}
	for _, r := range results {
		g := byIdiom[r.Idiom]
		if g == nil {
			g = &CompareGroup{Idiom: r.Idiom}
			byIdiom[r.Idiom] = g
			ratios[r.Idiom] = &[numSources][]float64{}
		}
		g.N++
		switch {
		case r.DeltaPct[SrcStatic] > winThresholdPct:
			g.Wins++
		case r.DeltaPct[SrcStatic] < -winThresholdPct:
			g.Loss++
		default:
			g.Flat++
		}
		for src := 0; src < numSources; src++ {
			g.MeanDeltaPct[src] += r.DeltaPct[src]
			if r.BaseIPC > 0 && r.IPC[src] > 0 {
				ratios[r.Idiom][src] = append(ratios[r.Idiom][src], r.IPC[src]/r.BaseIPC)
			}
		}
		g.MeanBias += r.Acc.MeanBias
		g.MeanWeightedBias += r.Acc.WeightedBias
		g.MeanRankCorr += r.Acc.RankCorr
		g.Retired += r.Retired
		g.Audit.Merge(r.Audit)
	}
	out := make([]CompareGroup, 0, len(byIdiom))
	for idiom, g := range byIdiom {
		n := float64(g.N)
		for src := 0; src < numSources; src++ {
			g.MeanDeltaPct[src] /= n
			if rs := ratios[idiom][src]; len(rs) > 0 {
				g.GeoDeltaPct[src] = (stats.GeoMean(rs) - 1) * 100
			}
		}
		if tr := g.MeanDeltaPct[SrcTrain]; math.Abs(tr) > 1e-9 {
			g.Recovered = g.MeanDeltaPct[SrcStatic] / tr
		}
		g.MeanBias /= n
		g.MeanWeightedBias /= n
		g.MeanRankCorr /= n
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanDeltaPct[SrcStatic] != out[j].MeanDeltaPct[SrcStatic] {
			return out[i].MeanDeltaPct[SrcStatic] > out[j].MeanDeltaPct[SrcStatic]
		}
		return out[i].Idiom < out[j].Idiom
	})
	return out
}

// Render writes the per-idiom three-way table: mean IPC deltas for each
// profile source, static win/loss/flat classification, the static-selection
// audit attribution (sessions entered per retired kilo-instruction and the
// merged fraction of forward sessions), and the estimate-accuracy columns.
func (rep *CompareReport) Render(w io.Writer) {
	fmt.Fprintf(w, "three-way population: %d programs, %s selection from static estimate / train profile / oracle run profile\n",
		rep.Count, rep.Algo)
	fmt.Fprintf(w, "%-16s%6s%9s%9s%9s%6s%6s%6s%9s%9s%8s%8s%8s\n",
		"idiom", "n", "stat%", "train%", "orac%", "win", "loss", "flat",
		"ent/KI", "merged%", "bias", "wbias", "rho")
	row := func(label string, g CompareGroup) {
		entPerKI := 0.0
		if g.Retired > 0 {
			entPerKI = float64(g.Audit.Entered) / float64(g.Retired) * 1000
		}
		mergedPct := 0.0
		if fwd := g.Audit.Merged + g.Audit.Fallback + g.Audit.FlushCancelled; fwd > 0 {
			mergedPct = float64(g.Audit.Merged) / float64(fwd) * 100
		}
		fmt.Fprintf(w, "%-16s%6d%+9.2f%+9.2f%+9.2f%6d%6d%6d%9.2f%9.1f%8.3f%8.3f%8.3f\n",
			label, g.N,
			g.MeanDeltaPct[SrcStatic], g.MeanDeltaPct[SrcTrain], g.MeanDeltaPct[SrcOracle],
			g.Wins, g.Loss, g.Flat, entPerKI, mergedPct,
			g.MeanBias, g.MeanWeightedBias, g.MeanRankCorr)
	}
	var total CompareGroup
	total.Idiom = "total"
	for _, g := range rep.Groups {
		row(g.Idiom, g)
		n := float64(g.N)
		total.N += g.N
		total.Wins += g.Wins
		total.Loss += g.Loss
		total.Flat += g.Flat
		for src := 0; src < numSources; src++ {
			total.MeanDeltaPct[src] += g.MeanDeltaPct[src] * n
		}
		total.MeanBias += g.MeanBias * n
		total.MeanWeightedBias += g.MeanWeightedBias * n
		total.MeanRankCorr += g.MeanRankCorr * n
		total.Retired += g.Retired
		total.Audit.Merge(g.Audit)
	}
	if total.N > 0 {
		n := float64(total.N)
		for src := 0; src < numSources; src++ {
			total.MeanDeltaPct[src] /= n
		}
		total.MeanBias /= n
		total.MeanWeightedBias /= n
		total.MeanRankCorr /= n
		row("total", total)
		if tr := total.MeanDeltaPct[SrcTrain]; math.Abs(tr) > 1e-9 {
			fmt.Fprintf(w, "static selection recovers %.0f%% of the train-profile mean IPC win (oracle headroom %+0.2f%%)\n",
				total.MeanDeltaPct[SrcStatic]/tr*100, total.MeanDeltaPct[SrcOracle]-total.MeanDeltaPct[SrcTrain])
		}
	}
}
