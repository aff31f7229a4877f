// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices called out in DESIGN.md.
//
// Each Benchmark* runs its experiment end to end — selection, baseline and
// DMP simulations over the 17-benchmark corpus — at a reduced instruction
// budget per run (so the full suite finishes in minutes) and reports the
// headline quantity as a custom metric. `cmd/dmpbench` runs the same
// experiments at full size.
package main

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/harness"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/stats"
	"dmp/internal/verify"
)

// benchMaxInsts caps simulated instructions per run inside benchmarks.
const benchMaxInsts = 150_000

var (
	sessOnce sync.Once
	sess     *harness.Session
	sessErr  error
)

func session(b *testing.B) *harness.Session {
	b.Helper()
	sessOnce.Do(func() {
		sess, sessErr = harness.NewSession(harness.Options{EvalOptions: harness.EvalOptions{MaxInsts: benchMaxInsts}})
	})
	if sessErr != nil {
		b.Fatal(sessErr)
	}
	return sess
}

// reportMean runs one experiment table and reports a row's mean.
func reportMean(b *testing.B, tbl *stats.Table, row, metric string) {
	b.Helper()
	b.ReportMetric(tbl.Mean(row), metric)
}

func BenchmarkTable1Config(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard)
	}
}

func BenchmarkTable2Characteristics(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "BaseIPC", "base-IPC")
		reportMean(b, tbl, "MPKI", "MPKI")
	}
}

func BenchmarkFig5Left(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig5Left(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "exact", "exact-%")
		reportMean(b, tbl, "All-best-heur", "all-best-heur-%")
	}
}

func BenchmarkFig5Right(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig5Right(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "cost-long", "cost-long-%")
		reportMean(b, tbl, "All-best-cost", "all-best-cost-%")
	}
}

func BenchmarkFig6Flushes(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig6(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "baseline", "base-flushes/KI")
		reportMean(b, tbl, "All-best-heur", "dmp-flushes/KI")
	}
}

func BenchmarkFig7Sweep(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	// A reduced sweep for the bench target; dmpbench runs the full 5x5 grid.
	maxInstrs := []int{10, 50, 200}
	minMerges := []float64{0.90, 0.01}
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig7(s, maxInstrs, minMerges)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "MAX_INSTR=50 MIN_MERGE=1%", "best-thresholds-%")
		reportMean(b, tbl, "MAX_INSTR=10 MIN_MERGE=90%", "worst-thresholds-%")
	}
}

func BenchmarkFig8Baselines(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig8(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "Every-br", "every-br-%")
		reportMean(b, tbl, "All-best-heur", "all-best-heur-%")
	}
}

func BenchmarkFig9InputSets(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig9(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "All-best-heur-same", "same-%")
		reportMean(b, tbl, "All-best-heur-diff", "diff-%")
	}
}

func BenchmarkFig10Overlap(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig10(s)
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tbl, "either-run-train", "either-%")
	}
}

// --- Ablation benches (DESIGN.md Section 5) ---

// ablationImprovement measures the mean DMP improvement under a modified
// selection parameter set, over a fast subset of the corpus.
func ablationImprovement(b *testing.B, mutate func(*core.Params)) float64 {
	b.Helper()
	s := session(b)
	params := core.HeuristicParams()
	mutate(&params)
	var sum float64
	n := 0
	for _, w := range s.Workloads {
		base, err := w.Baseline()
		if err != nil {
			b.Fatal(err)
		}
		res, err := w.Select(params, false)
		if err != nil {
			b.Fatal(err)
		}
		dmp, err := w.RunDMP(res.Annots)
		if err != nil {
			b.Fatal(err)
		}
		sum += harness.Improvement(base, dmp)
		n++
	}
	return sum / float64(n)
}

func BenchmarkAblationChainReduction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		on := ablationImprovement(b, func(p *core.Params) {})
		off := ablationImprovement(b, func(p *core.Params) { p.DisableChainReduction = true })
		b.ReportMetric(on, "chains-on-%")
		b.ReportMetric(off, "chains-off-%")
	}
}

func BenchmarkAblationMaxCFM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one := ablationImprovement(b, func(p *core.Params) { p.MaxCFM = 1 })
		three := ablationImprovement(b, func(p *core.Params) { p.MaxCFM = 3 })
		b.ReportMetric(one, "maxcfm1-%")
		b.ReportMetric(three, "maxcfm3-%")
	}
}

func BenchmarkAblationAccConf(b *testing.B) {
	b.ReportAllocs()
	// Footnote 5: the cost model is not sensitive to Acc_Conf in 20%-50%.
	for i := 0; i < b.N; i++ {
		for _, acc := range []float64{0.20, 0.40, 0.50} {
			v := ablationImprovement(b, func(p *core.Params) {
				*p = core.CostParams(core.EdgeWeighted)
				p.AccConf = acc
			})
			b.ReportMetric(v, fmt.Sprintf("accconf%.0f-%%", acc*100))
		}
	}
}

func BenchmarkAblationShortHammock(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		with := ablationImprovement(b, func(p *core.Params) {})
		without := ablationImprovement(b, func(p *core.Params) { p.EnableShort = false })
		b.ReportMetric(with, "short-on-%")
		b.ReportMetric(without, "short-off-%")
	}
}

func BenchmarkAblationOverheadMethod(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		long := ablationImprovement(b, func(p *core.Params) { *p = core.CostParams(core.LongestPath) })
		edge := ablationImprovement(b, func(p *core.Params) { *p = core.CostParams(core.EdgeWeighted) })
		b.ReportMetric(long, "cost-long-%")
		b.ReportMetric(edge, "cost-edge-%")
	}
}

// --- Component microbenchmarks ---

func BenchmarkPipelineBaseline(b *testing.B) {
	b.ReportAllocs()
	w := bench.ByName("compress")
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(bench.RunInput, 1)
	cfg := pipeline.DefaultConfig()
	cfg.MaxInsts = 100_000
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		st, err := pipeline.Run(prog, input, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "sim-insts/s")
	_ = cycles
}

func BenchmarkPipelineDMP(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	var w *harness.Workload
	for _, c := range s.Workloads {
		if c.Bench.Name == "compress" {
			w = c
		}
	}
	res, err := w.Select(core.HeuristicParams(), false)
	if err != nil {
		b.Fatal(err)
	}
	annots := res.Annots
	cfg := pipeline.DefaultConfig()
	cfg.DMP = true
	cfg.MaxInsts = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(w.Bare.WithAnnots(annots), w.RunInput, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkSelection measures heur and both cost-model selections over gcc's
// run-tape profile. "cold" hands each run counters no earlier run had, so
// the run enumerates its paths as the first selection under a profile does;
// they differ only at the last pc, which holds no branch (a code segment
// ends in straight-line code), so the selection itself is unchanged. "warm"
// reuses one profile, so the run finds its hammock analyses memoized and
// only decides, as cost-edge does after cost-long in the toolchain.
func BenchmarkSelection(b *testing.B) {
	s := session(b)
	var w *harness.Workload
	for _, c := range s.Workloads {
		if c.Bench.Name == "gcc" {
			w = c
		}
	}
	for _, sel := range []struct {
		name string
		p    core.Params
	}{
		{"heur", core.HeuristicParams()},
		{"cost-long", core.CostParams(core.LongestPath)},
		{"cost-edge", core.CostParams(core.EdgeWeighted)},
	} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(sel.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				prof := *w.ProfRun
				prof.Taken = slices.Clone(prof.Taken)
				last := len(prof.Taken) - 1
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						prof.Taken[last] = uint64(i + 1)
					}
					if _, err := core.Select(w.Bare, &prof, sel.p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVerifyRun measures a full verifier run (every pass) over gcc
// carrying its heur annotations, the check each selection in the toolchain
// is followed by. In "warm" the code array holds a clean verdict, as after
// codegen's check, so only the sidecar passes run; "cold" gives each run a
// fresh clone of the code, so every code pass runs and the profile still
// shows them.
func BenchmarkVerifyRun(b *testing.B) {
	s := session(b)
	var w *harness.Workload
	for _, c := range s.Workloads {
		if c.Bench.Name == "gcc" {
			w = c
		}
	}
	res, err := w.Select(core.HeuristicParams(), false)
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Bare.WithAnnots(res.Annots)
	run := func(b *testing.B, p *isa.Program) {
		if diags := verify.Run(p, verify.Options{Program: "gcc"}); len(diags) > 0 {
			b.Fatal(diags[0])
		}
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, prog)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			q := *prog
			q.Code = slices.Clone(prog.Code)
			b.StartTimer()
			run(b, &q)
		}
	})
}

// BenchmarkExtension2DProfiling measures the 2D-profiling extension: the
// static diverge-branch count shrinks while the performance improvement is
// preserved (the paper's Section 8.3 expectation).
func BenchmarkExtension2DProfiling(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		var plainBranches, filteredBranches, plainImp, filteredImp float64
		for _, w := range s.Workloads {
			base, err := w.Baseline()
			if err != nil {
				b.Fatal(err)
			}
			_, sp, err := profile.Collect2D(w.Bare, w.RunInput, profile.TwoDOptions{})
			if err != nil {
				b.Fatal(err)
			}
			plain := core.HeuristicParams()
			resPlain, err := core.Select(w.Bare, w.ProfRun, plain)
			if err != nil {
				b.Fatal(err)
			}
			filtered := core.HeuristicParams()
			filtered.TwoD = sp
			resFilt, err := core.Select(w.Bare, w.ProfRun, filtered)
			if err != nil {
				b.Fatal(err)
			}
			dmpPlain, err := w.RunDMP(resPlain.Annots)
			if err != nil {
				b.Fatal(err)
			}
			dmpFilt, err := w.RunDMP(resFilt.Annots)
			if err != nil {
				b.Fatal(err)
			}
			plainBranches += float64(len(resPlain.Annots))
			filteredBranches += float64(len(resFilt.Annots))
			plainImp += harness.Improvement(base, dmpPlain)
			filteredImp += harness.Improvement(base, dmpFilt)
		}
		n := float64(len(s.Workloads))
		b.ReportMetric(plainBranches/n, "plain-branches")
		b.ReportMetric(filteredBranches/n, "2d-branches")
		b.ReportMetric(plainImp/n, "plain-%")
		b.ReportMetric(filteredImp/n, "2d-%")
	}
}

// BenchmarkExtensionFeedback measures the run-time usefulness-feedback
// extension across the corpus.
func BenchmarkExtensionFeedback(b *testing.B) {
	b.ReportAllocs()
	s := session(b)
	for i := 0; i < b.N; i++ {
		var off, on float64
		for _, w := range s.Workloads {
			base, err := w.Baseline()
			if err != nil {
				b.Fatal(err)
			}
			res, err := w.Select(core.HeuristicParams(), false)
			if err != nil {
				b.Fatal(err)
			}
			dmp, err := w.RunDMP(res.Annots)
			if err != nil {
				b.Fatal(err)
			}
			cfg := pipeline.DefaultConfig()
			cfg.DMP = true
			cfg.DpredFeedback = true
			cfg.MaxInsts = benchMaxInsts
			fb, err := pipeline.Run(w.Bare.WithAnnots(res.Annots), w.RunInput, cfg)
			if err != nil {
				b.Fatal(err)
			}
			off += harness.Improvement(base, dmp)
			on += harness.Improvement(base, fb)
		}
		n := float64(len(s.Workloads))
		b.ReportMetric(off/n, "feedback-off-%")
		b.ReportMetric(on/n, "feedback-on-%")
	}
}
