package harness

import (
	"fmt"
	"io"
	"sync"

	"dmp/internal/core"
	"dmp/internal/pipeline"
	"dmp/internal/stats"
)

// Table1 writes the machine configuration (the paper's Table 1).
func Table1(w io.Writer) {
	cfg := pipeline.DefaultConfig()
	fmt.Fprintln(w, "Table 1. Baseline processor configuration and additional support for DMP")
	fmt.Fprintf(w, "Front End        %dKB %d-way %d-cycle I-cache; fetches up to %d instructions,\n",
		cfg.ICache.SizeKB, cfg.ICache.Ways, cfg.ICache.HitCycles, cfg.FetchWidth)
	fmt.Fprintf(w, "                 up to %d conditional not-taken branches per cycle\n", cfg.MaxNotTakenBr)
	fmt.Fprintf(w, "Branch Predictors %d-entry perceptron (%d-bit history); %d-entry BTB;\n",
		cfg.PerceptronTables, cfg.PerceptronHist, cfg.BTBEntries)
	fmt.Fprintf(w, "                 %d-entry return address stack; min misprediction penalty %d cycles\n",
		cfg.RASDepth, cfg.MinMispPenalty)
	fmt.Fprintf(w, "Execution Core   %d-wide fetch/issue/retire; %d-entry reorder buffer\n",
		cfg.IssueWidth, cfg.ROBSize)
	fmt.Fprintf(w, "Memory System    L1D %dKB %d-way %d-cycle; L2 %dMB %d-way %d-cycle;\n",
		cfg.DCache.SizeKB, cfg.DCache.Ways, cfg.DCache.HitCycles,
		cfg.L2.SizeKB>>10, cfg.L2.Ways, cfg.L2.HitCycles)
	fmt.Fprintf(w, "                 %d-cycle memory (incl. bus); %dB lines, LRU\n",
		cfg.MemLatency, cfg.LineBytes)
	fmt.Fprintf(w, "DMP Support      %d-entry enhanced JRS confidence estimator (%d-bit history,\n",
		cfg.ConfEntries, cfg.ConfHistBits)
	fmt.Fprintf(w, "                 threshold %d); %d predicate registers; 3 CFM registers\n",
		cfg.ConfThreshold, cfg.PredicateRegs)
}

// Table2 reproduces the benchmark characteristics table: base IPC, MPKI,
// retired instructions, static branches, diverge branches and average CFM
// points per diverge branch under All-best-heur.
func Table2(s *Session) (*stats.Table, error) {
	t := &stats.Table{Title: "Table 2. Benchmark characteristics", Cols: s.Names()}
	rows := []string{"BaseIPC", "MPKI", "Insts(K)", "All br.", "Diverge br.", "Avg #CFM"}
	vals := map[string]map[string]float64{}
	for _, r := range rows {
		vals[r] = map[string]float64{}
	}
	var mu sync.Mutex
	best := HeuristicConfigs()[4]
	err := s.forEachIdx(len(s.Workloads), func(i int) error {
		w := s.Workloads[i]
		base, err := w.Baseline()
		if err != nil {
			return err
		}
		res, err := w.Select(best.Params, false)
		if err != nil {
			return err
		}
		annotated := w.Bare.WithAnnots(res.Annots)
		mu.Lock()
		defer mu.Unlock()
		vals["BaseIPC"][w.Name] = base.IPC()
		vals["MPKI"][w.Name] = base.MPKI()
		vals["Insts(K)"][w.Name] = float64(base.Retired) / 1000
		vals["All br."][w.Name] = float64(w.Bare.NumStaticBranches())
		vals["Diverge br."][w.Name] = float64(annotated.NumDivergeBranches())
		vals["Avg #CFM"][w.Name] = annotated.AvgCFMPerDiverge()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r, vals[r])
	}
	return t, nil
}

// series is one row of a selection figure: its label and the selection it
// simulates on every workload (nil = the baseline machine alone).
type series struct {
	name string
	sel  func(w *Workload) (*core.Result, error)
}

// selecting returns a series selecting with p from the run-tape profile, or
// the train-tape one when train is set.
func selecting(name string, p core.Params, train bool) series {
	return series{name, func(w *Workload) (*core.Result, error) { return w.Select(p, train) }}
}

func configSeries(cfgs []SelectionConfig) []series {
	out := make([]series, len(cfgs))
	for i, c := range cfgs {
		out[i] = selecting(c.Name, c.Params, false)
	}
	return out
}

// figure builds a selection figure: one column per benchmark and one row per
// series, holding the DMP improvement over baseline in percent, or the
// pipeline flushes per kilo-instruction when flushes is set.
func (s *Session) figure(title string, rows []series, flushes bool) (*stats.Table, error) {
	t := &stats.Table{Title: title, Cols: s.Names(), Unit: "% IPC improvement over baseline"}
	if flushes {
		t.Unit = "flushes per kilo-instruction"
	}
	for _, r := range rows {
		imp, fl, err := s.runConfigSeries(r.sel)
		if err != nil {
			return nil, err
		}
		if flushes {
			t.AddRow(r.name, fl)
		} else {
			t.AddRow(r.name, imp)
		}
	}
	return t, nil
}

// runConfigSeries simulates one selection over every workload and returns
// the per-benchmark improvement and flush rows; a nil selection reports the
// baseline machine's flushes.
func (s *Session) runConfigSeries(sel func(w *Workload) (*core.Result, error)) (imp, flushes map[string]float64, err error) {
	imp = map[string]float64{}
	flushes = map[string]float64{}
	var mu sync.Mutex
	err = s.forEachIdx(len(s.Workloads), func(i int) error {
		w := s.Workloads[i]
		base, err := w.Baseline()
		if err != nil {
			return err
		}
		run := base
		if sel != nil {
			res, err := sel(w)
			if err != nil {
				return err
			}
			if run, err = w.RunDMP(res.Annots); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		imp[w.Name] = Improvement(base, run)
		flushes[w.Name] = run.FlushesPerKI()
		return nil
	})
	return imp, flushes, err
}

// Fig5Left reproduces Figure 5 (left): DMP improvement with the cumulative
// heuristic configurations.
func Fig5Left(s *Session) (*stats.Table, error) {
	return s.figure("Figure 5 (left). DMP performance improvement, heuristic selection",
		configSeries(HeuristicConfigs()), false)
}

// Fig5Right reproduces Figure 5 (right): the cost-benefit model variants.
func Fig5Right(s *Session) (*stats.Table, error) {
	return s.figure("Figure 5 (right). DMP performance improvement, cost-benefit model",
		configSeries(CostConfigs()), false)
}

// Fig6 reproduces Figure 6: pipeline flushes per kilo-instruction in the
// baseline and under each cumulative DMP configuration.
func Fig6(s *Session) (*stats.Table, error) {
	rows := append([]series{{name: "baseline"}}, configSeries(HeuristicConfigs())...)
	return s.figure("Figure 6. Pipeline flushes due to branch mispredictions", rows, true)
}

// Fig7 reproduces Figure 7: the MAX_INSTR x MIN_MERGE_PROB threshold sweep
// using Alg-exact + Alg-freq only. Each row is one (MAX_INSTR, MIN_MERGE)
// point; columns are benchmarks.
func Fig7(s *Session, maxInstrs []int, minMerges []float64) (*stats.Table, error) {
	if maxInstrs == nil {
		maxInstrs = []int{10, 25, 50, 100, 200}
	}
	if minMerges == nil {
		minMerges = []float64{0.90, 0.50, 0.30, 0.05, 0.01}
	}
	var rows []series
	for _, mi := range maxInstrs {
		for _, mm := range minMerges {
			p := core.HeuristicParams()
			p.EnableShort = false
			p.EnableRetCFM = false
			p.EnableLoops = false
			p.MaxInstr = mi
			p.MaxCbr = max(mi/10, 1)
			p.MinMergeProb = mm
			rows = append(rows, selecting(fmt.Sprintf("MAX_INSTR=%d MIN_MERGE=%g%%", mi, mm*100), p, false))
		}
	}
	return s.figure("Figure 7. Threshold sweep (Alg-exact + Alg-freq)", rows, false)
}

// Fig8 reproduces Figure 8: the simple selection baselines versus
// All-best-heur.
func Fig8(s *Session) (*stats.Table, error) {
	var rows []series
	for _, b := range []core.Baseline{core.EveryBranch, core.Random50, core.HighBP5, core.Immediate, core.IfElse} {
		rows = append(rows, series{b.String(), func(w *Workload) (*core.Result, error) {
			// Seed 50, not SelectByName's 1: the transcript's Random-50 row was drawn with it.
			return core.SelectBaseline(w.Bare, w.ProfRun, b, 50)
		}})
	}
	rows = append(rows, selecting("All-best-heur", core.HeuristicParams(), false))
	return s.figure("Figure 8. Simple diverge-branch selection algorithms", rows, false)
}

// Fig9 reproduces Figure 9: profiling-input sensitivity. "same" profiles on
// the run input; "diff" profiles on the train input; both simulate on the
// run input.
func Fig9(s *Session) (*stats.Table, error) {
	heur := HeuristicConfigs()[4].Params
	cost := CostConfigs()[4].Params
	return s.figure("Figure 9. Input-set effects on DMP performance", []series{
		selecting("All-best-heur-same", heur, false),
		selecting("All-best-heur-diff", heur, true),
		selecting("All-best-cost-same", cost, false),
		selecting("All-best-cost-diff", cost, true),
	}, false)
}

// Fig10 reproduces Figure 10: the overlap between the diverge-branch sets
// selected with the run versus train profiling inputs, weighted by each
// branch's dynamic execution count on the run input, as a percentage of all
// dynamic diverge-branch executions.
func Fig10(s *Session) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Figure 10. Diverge branches selected across profiling input sets",
		Cols:  s.Names(), Unit: "% of dynamic diverge branches",
	}
	heur := HeuristicConfigs()[4].Params
	onlyRun := map[string]float64{}
	onlyTrain := map[string]float64{}
	either := map[string]float64{}
	var mu sync.Mutex
	err := s.forEachIdx(len(s.Workloads), func(i int) error {
		w := s.Workloads[i]
		rRun, err := w.Select(heur, false)
		if err != nil {
			return err
		}
		rTrain, err := w.Select(heur, true)
		if err != nil {
			return err
		}
		var run, train, both uint64
		for pc := range rRun.Annots {
			n := w.ProfRun.BranchExec(pc)
			if rTrain.Annots[pc] != nil {
				both += n
			} else {
				run += n
			}
		}
		for pc := range rTrain.Annots {
			if rRun.Annots[pc] == nil {
				train += w.ProfRun.BranchExec(pc)
			}
		}
		total := run + train + both
		if total == 0 {
			total = 1
		}
		mu.Lock()
		defer mu.Unlock()
		onlyRun[w.Name] = 100 * float64(run) / float64(total)
		onlyTrain[w.Name] = 100 * float64(train) / float64(total)
		either[w.Name] = 100 * float64(both) / float64(total)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("only-run", onlyRun)
	t.AddRow("only-train", onlyTrain)
	t.AddRow("either-run-train", either)
	return t, nil
}
