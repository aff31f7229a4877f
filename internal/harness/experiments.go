package harness

import (
	"fmt"
	"io"

	"dmp/internal/core"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
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

// table fills a table with one column per workload and the given rows: one
// pool task per workload, fn(i, col) writing workload i's value for each
// row into col, in row order. Each task writes only its own column.
func (s *Session) table(t *stats.Table, rows []string, fn func(i int, col []float64) error) (*stats.Table, error) {
	t.Cols = s.Names()
	cols := make([][]float64, len(s.Workloads))
	err := s.forEachIdx(len(s.Workloads), func(i int) error {
		cols[i] = make([]float64, len(rows))
		return fn(i, cols[i])
	})
	if err != nil {
		return nil, err
	}
	for r, name := range rows {
		vals := make(map[string]float64, len(cols))
		for i, w := range s.Workloads {
			vals[w.Name] = cols[i][r]
		}
		t.AddRow(name, vals)
	}
	return t, nil
}

// Table2 reproduces the benchmark characteristics table: base IPC, MPKI,
// retired instructions, static branches, diverge branches and average CFM
// points per diverge branch under All-best-heur.
func Table2(s *Session) (*stats.Table, error) {
	best := HeuristicConfigs()[4]
	return s.table(&stats.Table{Title: "Table 2. Benchmark characteristics"},
		[]string{"BaseIPC", "MPKI", "Insts(K)", "All br.", "Diverge br.", "Avg #CFM"},
		func(i int, col []float64) error {
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
			copy(col, []float64{base.IPC(), base.MPKI(), float64(base.Retired) / 1000,
				float64(w.Bare.NumStaticBranches()), float64(annotated.NumDivergeBranches()), annotated.AvgCFMPerDiverge()})
			return nil
		})
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

// figureSpec is a selection figure: its title, its rows, and whether it
// reports pipeline flushes per kilo-instruction instead of the DMP
// improvement over baseline in percent.
type figureSpec struct {
	title   string
	rows    []series
	flushes bool
}

// figure builds a selection figure with one column per benchmark, workload
// by workload: one task makes every row's selection in row order, so the
// rows that share an analysis scope find it in core's hammock memo, and
// simulates the workload's cells in one call. Each row adds the baseline
// cell, then its DMP cell unless its selection is nil (the baseline row
// reports the baseline machine's flushes), so a figure requests the
// baseline once per row.
func (s *Session) figure(f figureSpec) (*stats.Table, error) {
	t := &stats.Table{Title: f.title, Unit: "% IPC improvement over baseline"}
	if f.flushes {
		t.Unit = "flushes per kilo-instruction"
	}
	names := make([]string, len(f.rows))
	for r, row := range f.rows {
		names[r] = row.name
	}
	return s.table(t, names, func(i int, col []float64) error {
		w := s.Workloads[i]
		var cells []sample.Cell
		at := make([][2]int, len(f.rows)) // each row's baseline and run cells
		for r, row := range f.rows {
			at[r] = [2]int{len(cells), len(cells)}
			cells = append(cells, s.Opts.cell(w.Bare, false))
			if row.sel != nil {
				res, err := row.sel(w)
				if err != nil {
					return err
				}
				at[r][1] = len(cells)
				cells = append(cells, s.Opts.cell(w.Bare.WithAnnots(res.Annots), true))
			}
		}
		sts, err := s.simulate(w, cells)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		for r, ix := range at {
			base, run := sts[ix[0]], sts[ix[1]]
			if f.flushes {
				col[r] = run.FlushesPerKI()
			} else {
				col[r] = Improvement(base, run)
			}
		}
		return nil
	})
}

// Fig5Left reproduces Figure 5 (left): DMP improvement with the cumulative
// heuristic configurations.
func Fig5Left(s *Session) (*stats.Table, error) { return s.figure(fig5Left()) }

func fig5Left() figureSpec {
	return figureSpec{"Figure 5 (left). DMP performance improvement, heuristic selection",
		configSeries(HeuristicConfigs()), false}
}

// Fig5Right reproduces Figure 5 (right): the cost-benefit model variants.
func Fig5Right(s *Session) (*stats.Table, error) {
	return s.figure(figureSpec{"Figure 5 (right). DMP performance improvement, cost-benefit model",
		configSeries(CostConfigs()), false})
}

// Fig6 reproduces Figure 6: pipeline flushes per kilo-instruction in the
// baseline and under each cumulative DMP configuration.
func Fig6(s *Session) (*stats.Table, error) { return s.figure(fig6()) }

func fig6() figureSpec {
	rows := append([]series{{name: "baseline"}}, configSeries(HeuristicConfigs())...)
	return figureSpec{"Figure 6. Pipeline flushes due to branch mispredictions", rows, true}
}

// Fig7 reproduces Figure 7: the MAX_INSTR x MIN_MERGE_PROB threshold sweep
// using Alg-exact + Alg-freq only. Each row is one (MAX_INSTR, MIN_MERGE)
// point; columns are benchmarks.
func Fig7(s *Session, maxInstrs []int, minMerges []float64) (*stats.Table, error) {
	return s.figure(fig7(maxInstrs, minMerges))
}

func fig7(maxInstrs []int, minMerges []float64) figureSpec {
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
	return figureSpec{"Figure 7. Threshold sweep (Alg-exact + Alg-freq)", rows, false}
}

// Fig8 reproduces Figure 8: the simple selection baselines versus
// All-best-heur.
func Fig8(s *Session) (*stats.Table, error) { return s.figure(fig8()) }

func fig8() figureSpec {
	var rows []series
	for _, b := range []core.Baseline{core.EveryBranch, core.Random50, core.HighBP5, core.Immediate, core.IfElse} {
		rows = append(rows, series{b.String(), func(w *Workload) (*core.Result, error) {
			// Seed 50, not SelectByName's 1: the transcript's Random-50 row was drawn with it.
			return core.SelectBaseline(w.Bare, w.ProfRun, b, 50)
		}})
	}
	rows = append(rows, selecting("All-best-heur", core.HeuristicParams(), false))
	return figureSpec{"Figure 8. Simple diverge-branch selection algorithms", rows, false}
}

// Fig9 reproduces Figure 9: profiling-input sensitivity. "same" profiles on
// the run input; "diff" profiles on the train input; both simulate on the
// run input.
func Fig9(s *Session) (*stats.Table, error) { return s.figure(fig9()) }

func fig9() figureSpec {
	heur := HeuristicConfigs()[4].Params
	cost := CostConfigs()[4].Params
	return figureSpec{"Figure 9. Input-set effects on DMP performance", []series{
		selecting("All-best-heur-same", heur, false),
		selecting("All-best-heur-diff", heur, true),
		selecting("All-best-cost-same", cost, false),
		selecting("All-best-cost-diff", cost, true),
	}, false}
}

// Fig10 reproduces Figure 10: the overlap between the diverge-branch sets
// selected with the run versus train profiling inputs, weighted by each
// branch's dynamic execution count on the run input, as a percentage of all
// dynamic diverge-branch executions.
func Fig10(s *Session) (*stats.Table, error) {
	heur := HeuristicConfigs()[4].Params
	return s.table(&stats.Table{
		Title: "Figure 10. Diverge branches selected across profiling input sets",
		Unit:  "% of dynamic diverge branches",
	}, []string{"only-run", "only-train", "either-run-train"}, func(i int, col []float64) error {
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
		total := float64(max(run+train+both, 1))
		copy(col, []float64{100 * float64(run) / total, 100 * float64(train) / total, 100 * float64(both) / total})
		return nil
	})
}
