package harness

// Sampled-simulation support: routing session runs through the SMARTS
// executor (internal/sample), aggregating per-run error bars into the
// metrics report, and the sample-error differential experiment that checks
// the sampled estimates against full-fidelity runs — on the paper corpus and
// on generated populations.

import (
	"context"
	"fmt"
	"time"

	"dmp/internal/codegen"
	"dmp/internal/gen"
	"dmp/internal/sample"
	"dmp/internal/stats"
)

// sampleAgg accumulates the session's sampled-run statistics (guarded by
// Session.runMu).
type sampleAgg struct {
	runs      uint64
	exact     uint64
	unbounded uint64
	total     uint64
	detailed  uint64
	warmed    uint64
	relSum    float64
	relMax    float64
}

// add folds one sampled result into the aggregate (the caller holds
// Session.runMu). A result from a disabled conf sampled nothing and is
// ignored.
func (a *sampleAgg) add(r sample.Result) {
	if !r.Conf.Enabled {
		return
	}
	a.runs++
	a.total += r.TotalInsts
	a.detailed += r.DetailedInsts
	a.warmed += r.WarmInsts
	if r.Exact {
		a.exact++
		return
	}
	if r.Unbounded {
		a.unbounded++
		return
	}
	rel := r.RelErr()
	a.relSum += rel
	if rel > a.relMax {
		a.relMax = rel
	}
}

// SampleMetrics is the sampling block of the metrics report: how much of the
// instruction stream went through the detailed pipeline versus functional
// fast-forward, and how tight the resulting error bars are.
type SampleMetrics struct {
	Conf sample.SampleConf `json:"conf"`
	// Runs counts sampled simulations folded into the session (cache-
	// answered results included); Exact of those fell back to full
	// fidelity (short programs), Unbounded produced no usable error bar.
	Runs      uint64 `json:"runs"`
	Exact     uint64 `json:"exact,omitempty"`
	Unbounded uint64 `json:"unbounded,omitempty"`
	// TotalInsts / DetailedInsts / WarmInsts sum the per-run accounting:
	// instructions covered, instructions through the detailed pipeline
	// (warmup + measurement), and instructions through the warming
	// fast-forward.
	TotalInsts    uint64 `json:"total_insts"`
	DetailedInsts uint64 `json:"detailed_insts"`
	WarmInsts     uint64 `json:"warm_insts"`
	// MeanRelErr / MaxRelErr summarize the confidence-interval half-widths
	// as fractions of the IPC estimates, over the bounded non-exact runs.
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`
}

// DetailedPct returns the share of covered instructions that went through
// the detailed pipeline, in percent.
func (m SampleMetrics) DetailedPct() float64 {
	if m.TotalInsts == 0 {
		return 0
	}
	return float64(m.DetailedInsts) / float64(m.TotalInsts) * 100
}

// sampleMetrics snapshots the sampling block (caller holds runMu).
func (s *Session) sampleMetrics() *SampleMetrics {
	if !s.Opts.Sample.Enabled {
		return nil
	}
	a := s.sampAgg
	m := &SampleMetrics{
		Conf:          s.Opts.Sample,
		Runs:          a.runs,
		Exact:         a.exact,
		Unbounded:     a.unbounded,
		TotalInsts:    a.total,
		DetailedInsts: a.detailed,
		WarmInsts:     a.warmed,
		MaxRelErr:     a.relMax,
	}
	if bounded := a.runs - a.exact - a.unbounded; bounded > 0 {
		m.MeanRelErr = a.relSum / float64(bounded)
	}
	return m
}

// SampleErrorRow is one benchmark's full-versus-sampled comparison in a
// SampleErrorReport, for one machine configuration (baseline or DMP).
type SampleErrorRow struct {
	Name string `json:"name"`
	Mode string `json:"mode"` // "base" or "dmp"
	// FullIPC is the full-fidelity IPC; SampIPC the sampled estimate with
	// its confidence half-width RelErrPct (percent of SampIPC).
	FullIPC   float64 `json:"full_ipc"`
	SampIPC   float64 `json:"samp_ipc"`
	RelErrPct float64 `json:"rel_err_pct"`
	// Covered reports whether FullIPC lies inside the sampled confidence
	// interval — the SMARTS contract this experiment exists to check.
	Covered bool `json:"covered"`
	// Exact marks runs where the executor fell back to full fidelity.
	Exact bool `json:"exact,omitempty"`
	// DetailedPct is the share of instructions the sampled run put through
	// the detailed pipeline, in percent.
	DetailedPct float64 `json:"detailed_pct"`
}

// SampleErrorReport is the outcome of the sample-error differential: every
// benchmark simulated at full fidelity and sampled, baseline and DMP, with
// per-row coverage and aggregate wall-clock accounting.
type SampleErrorReport struct {
	Conf sample.SampleConf `json:"conf"`
	Rows []SampleErrorRow  `json:"rows"`
	// Misses lists the rows (as "name/mode") whose full-fidelity IPC fell
	// outside the sampled confidence interval. An empty list is the gate.
	Misses []string `json:"misses,omitempty"`
	// FullWall / SampWall are the aggregate simulation wall times of the
	// two arms; their ratio is the measured speedup.
	FullWall time.Duration `json:"full_wall_ns"`
	SampWall time.Duration `json:"samp_wall_ns"`
}

// Speedup returns the wall-clock ratio of the full-fidelity arm over the
// sampled arm.
func (r *SampleErrorReport) Speedup() float64 {
	if r.SampWall <= 0 {
		return 0
	}
	return float64(r.FullWall) / float64(r.SampWall)
}

// Sampled returns the number of rows whose sampled arm really sampled (not
// an exact fallback).
func (r *SampleErrorReport) Sampled() int {
	n := 0
	for _, row := range r.Rows {
		if !row.Exact {
			n++
		}
	}
	return n
}

// add appends one program's rows and the wall times of its two arms.
func (r *SampleErrorReport) add(rows []SampleErrorRow, wall [2]time.Duration) {
	for _, row := range rows {
		r.Rows = append(r.Rows, row)
		if !row.Covered {
			r.Misses = append(r.Misses, row.Name+"/"+row.Mode)
		}
	}
	r.FullWall += wall[0]
	r.SampWall += wall[1]
}

// diffCells runs one program's cells both ways, uncached so the wall times
// are honest: one sample.RunCells call at full fidelity (the zero conf) and
// one under sc, each timed. It returns one comparison row per cell, moded
// "dmp" or "base" by the cell's config, and the two arms' wall times.
func diffCells(ctx context.Context, name string, input []int64, cells []sample.Cell, sc sample.SampleConf) ([]SampleErrorRow, [2]time.Duration, error) {
	var arms [2][]sample.Result
	var wall [2]time.Duration
	for a, conf := range [2]sample.SampleConf{{}, sc} {
		t0 := time.Now()
		rs, err := sample.RunCells(ctx, input, cells, conf)
		if err != nil {
			return nil, wall, fmt.Errorf("%s: %s: %w", name, [2]string{"full", "sampled"}[a], err)
		}
		arms[a], wall[a] = rs, time.Since(t0)
	}
	rows := make([]SampleErrorRow, len(cells))
	for i, c := range cells {
		full, r := arms[0][i].IPC(), arms[1][i]
		rows[i] = SampleErrorRow{
			Name:      name,
			Mode:      "base",
			FullIPC:   full,
			SampIPC:   r.IPC(),
			RelErrPct: r.RelErr() * 100,
			Covered:   r.Covers(full),
			Exact:     r.Exact,
		}
		if c.Cfg.DMP {
			rows[i].Mode = "dmp"
		}
		if r.TotalInsts > 0 {
			rows[i].DetailedPct = float64(r.DetailedInsts) / float64(r.TotalInsts) * 100
		}
	}
	return rows, wall, nil
}

// SampleError runs the sample-error differential over the session's corpus:
// baseline and All-best-heur DMP, each simulated at full fidelity and
// sampled under sc, per benchmark. The returned table has one column per
// benchmark; the report carries the coverage verdicts and wall times the
// test gate asserts on.
func SampleError(s *Session, sc sample.SampleConf) (*stats.Table, *SampleErrorReport, error) {
	sc = sc.Normalize()
	best := HeuristicConfigs()[4]
	rows := make([][]SampleErrorRow, len(s.Workloads))
	walls := make([][2]time.Duration, len(s.Workloads))
	t, err := s.table(&stats.Table{
		Title: fmt.Sprintf("Sample-error differential (interval %d, warmup %d, period %d, %g%% CI)",
			sc.Interval, sc.Warmup, sc.Period, sc.Confidence*100),
		Unit: "IPC; covered = full-fidelity IPC inside the sampled CI",
	}, []string{"full base IPC", "samp base IPC", "base CI ±%", "full dmp IPC", "samp dmp IPC", "dmp CI ±%", "covered"},
		func(i int, col []float64) error {
			w := s.Workloads[i]
			res, err := w.Select(best.Params, false)
			if err != nil {
				return err
			}
			cells := []sample.Cell{s.Opts.cell(w.Bare, false), s.Opts.cell(w.Bare.WithAnnots(res.Annots), true)}
			if rows[i], walls[i], err = diffCells(s.Opts.ctx(), w.Name, w.RunInput, cells, sc); err != nil {
				return err
			}
			base, dmp := rows[i][0], rows[i][1]
			covered := 0.0
			if base.Covered && dmp.Covered {
				covered = 1
			}
			copy(col, []float64{base.FullIPC, base.SampIPC, base.RelErrPct, dmp.FullIPC, dmp.SampIPC, dmp.RelErrPct, covered})
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	rep := &SampleErrorReport{Conf: sc}
	for i := range rows {
		rep.add(rows[i], walls[i])
	}
	return t, rep, nil
}

// SampleErrorPopulation runs the same differential over a generated corpus:
// each program's baseline machine simulated at full fidelity and sampled.
// Generated programs are short relative to the paper corpus, so many rows
// are exact fallbacks — the point of including them in the gate is exactly
// that the executor must degrade to full fidelity, not to a wrong estimate.
func SampleErrorPopulation(ctx context.Context, progs []*gen.Program, sc sample.SampleConf, par int) (*SampleErrorReport, error) {
	sc = sc.Normalize()
	rows := make([][]SampleErrorRow, len(progs))
	walls := make([][2]time.Duration, len(progs))
	err := forEachProgram(ctx, progs, par, func(i int) error {
		p := progs[i]
		prog, err := codegen.CompileSource(p.Source)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		cells := []sample.Cell{{Prog: prog.WithAnnots(nil), Cfg: evalConfig(false, popEmuBudget)}}
		rows[i], walls[i], err = diffCells(ctx, p.Name, p.RunInput, cells, sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &SampleErrorReport{Conf: sc}
	for i := range rows {
		rep.add(rows[i], walls[i])
	}
	return rep, nil
}

// Render writes the report summary: coverage verdict, aggregate speedup and
// detailed-instruction share.
func (r *SampleErrorReport) Render(wr interface{ Write([]byte) (int, error) }) {
	var covered, exact int
	var detailed, total float64
	for _, row := range r.Rows {
		if row.Covered {
			covered++
		}
		if row.Exact {
			exact++
		}
		detailed += row.DetailedPct
		total++
	}
	fmt.Fprintf(wr, "sample-error: %d/%d rows covered (%d exact fallbacks), %d misses\n",
		covered, len(r.Rows), exact, len(r.Misses))
	for _, m := range r.Misses {
		fmt.Fprintf(wr, "  MISS %s\n", m)
	}
	if total > 0 {
		fmt.Fprintf(wr, "sample-error: mean detailed share %.2f%%, full %v vs sampled %v = %.2fx speedup\n",
			detailed/total, r.FullWall.Round(time.Millisecond), r.SampWall.Round(time.Millisecond), r.Speedup())
	}
}
