package harness

import (
	"bytes"
	"sync"
	"testing"

	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/stats"
)

// figureRowMajor is the row-major reference for Session.figure: each row
// fans out over every workload, and each workload makes one one-cell call
// for the baseline and one for the row's DMP binary.
func figureRowMajor(s *Session, f figureSpec) (*stats.Table, error) {
	t := &stats.Table{Title: f.title, Cols: s.Names(), Unit: "% IPC improvement over baseline"}
	if f.flushes {
		t.Unit = "flushes per kilo-instruction"
	}
	for _, r := range f.rows {
		imp := map[string]float64{}
		flushes := map[string]float64{}
		var mu sync.Mutex
		err := s.forEachIdx(len(s.Workloads), func(i int) error {
			w := s.Workloads[i]
			base, err := w.Baseline()
			if err != nil {
				return err
			}
			run := base
			if r.sel != nil {
				res, err := r.sel(w)
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
		if err != nil {
			return nil, err
		}
		if f.flushes {
			t.AddRow(r.name, flushes)
		} else {
			t.AddRow(r.name, imp)
		}
	}
	return t, nil
}

// TestFigureMatchesRowMajor: the workload-major figure renders the same
// table bytes as the row-major reference, at full fidelity and sampled.
// Each run gets a fresh cache, so neither reads the other's results.
func TestFigureMatchesRowMajor(t *testing.T) {
	opts := testOpts
	if raceEnabled {
		opts.Benchmarks = opts.Benchmarks[:2]
	}
	opts.Cache = simcache.New("")
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	figs := []struct {
		name string
		spec figureSpec
	}{
		{"fig5left", fig5Left()},
		{"fig6", fig6()},
		{"fig7", fig7([]int{10, 50}, []float64{0.90, 0.01})},
		{"fig8", fig8()},
		{"fig9", fig9()},
	}
	for _, sc := range []sample.SampleConf{{}, sample.DefaultConf()} {
		s.Opts.Sample = sc
		for _, f := range figs {
			render := func(run func(*Session, figureSpec) (*stats.Table, error)) []byte {
				s.Opts.Cache = simcache.New("")
				tbl, err := run(s, f.spec)
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				var b bytes.Buffer
				tbl.Render(&b)
				return b.Bytes()
			}
			want := render(figureRowMajor)
			if got := render((*Session).figure); !bytes.Equal(got, want) {
				t.Errorf("%s (sampling %v): workload-major table differs from the row-major reference\ngot:\n%s\nwant:\n%s",
					f.name, sc.Enabled, got, want)
			}
		}
	}
}

// TestFigureRequestAccounting pins the simulation requests of Table 2 and
// Figures 5 (left), 6 and 8 on the test corpus: a figure requests the
// baseline once per row and its DMP binary once per row with a selection,
// so the cache's executed runs and hits and the session's DMP-run count are
// those of the row-major evaluation.
func TestFigureRequestAccounting(t *testing.T) {
	opts := testOpts
	opts.Cache = simcache.New("")
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []func(*Session) (*stats.Table, error){Table2, Fig5Left, Fig6, Fig8} {
		if _, err := fig(s); err != nil {
			t.Fatal(err)
		}
	}
	c, m := s.Cache().Metrics(), s.Metrics()
	got := [4]uint64{c.Misses, c.Hits, c.Dedups, m.DMPRuns}
	if want := [4]uint64{33, 103, 0, 64}; got != want {
		t.Errorf("misses, hits, dedups, DMP runs = %v, want %v", got, want)
	}
}
