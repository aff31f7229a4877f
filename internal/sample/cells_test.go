package sample_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/sample"
)

// gridCells returns name's run tape and the 16 cells of a sampled sweep
// grid, ROBSize × ConfThreshold × FetchWidth × DMP over base: the bare
// binary for DMP off, the heuristic selection's annotated binary (same code
// segment) for DMP on.
func gridCells(t testing.TB, name string, base pipeline.Config) ([]int64, []sample.Cell) {
	t.Helper()
	prog, input := compileBench(t, name)
	prof, err := profile.Collect(prog, bench.ByName(name).Input(bench.TrainInput, 1), profile.Options{})
	if err != nil {
		t.Fatalf("%s: profile: %v", name, err)
	}
	sel, err := core.SelectByName(prog, prof, "heur")
	if err != nil {
		t.Fatalf("%s: select: %v", name, err)
	}
	bare, annotated := prog.WithAnnots(nil), prog.WithAnnots(sel.Annots)
	var cells []sample.Cell
	for _, rob := range []int{256, 512} {
		for _, thr := range []uint8{12, 14} {
			for _, fw := range []int{4, 8} {
				for _, dmp := range []bool{false, true} {
					cfg := base
					cfg.ROBSize, cfg.ConfThreshold, cfg.FetchWidth, cfg.DMP = rob, thr, fw, dmp
					c := sample.Cell{Prog: bare, Cfg: cfg}
					if dmp {
						c.Prog = annotated
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return input, cells
}

// TestCellsMatchSingle pins the grouped run's contract: every cell of a
// RunCells call must produce, byte for byte, the Result a Run of that cell
// alone produces. The cases cover the 16-cell sweep grid on corpus
// programs, a second warm group in the same call (an L2 of another size), a
// MaxInsts cap (a third group: another instruction count), and a program
// too short to sample, whose cells fall back to exact runs.
func TestCellsMatchSingle(t *testing.T) {
	sc := sample.DefaultConf()
	type tcase struct {
		name  string
		input []int64
		cells []sample.Cell
	}
	var cases []tcase
	for _, name := range []string{"gzip", "mcf", "vortex"} {
		input, cells := gridCells(t, name, pipeline.DefaultConfig())
		cases = append(cases, tcase{name + " grid", input, cells})
	}
	input, cells := gridCells(t, "twolf", pipeline.DefaultConfig())
	var mixed []sample.Cell
	for _, c := range cells[:4] {
		mixed = append(mixed, c)
		small := c
		small.Cfg.L2.SizeKB = 512
		capped := c
		capped.Cfg.MaxInsts = 1_000_000
		mixed = append(mixed, small, capped)
	}
	cases = append(cases, tcase{"twolf L2 and cap groups", input, mixed})
	tiny := tinyLoopProgram(t, 500)
	var short []sample.Cell
	for _, c := range cells[:3] {
		short = append(short, sample.Cell{Prog: tiny, Cfg: c.Cfg})
	}
	cases = append(cases, tcase{"exact fallback", nil, short})

	for _, tc := range cases {
		got, err := sample.RunCells(context.Background(), tc.input, tc.cells, sc)
		if err != nil {
			t.Fatalf("%s: RunCells: %v", tc.name, err)
		}
		for i, c := range tc.cells {
			want, err := sample.Run(context.Background(), c.Prog, tc.input, c.Cfg, sc)
			if err != nil {
				t.Fatalf("%s cell %d: Run: %v", tc.name, i, err)
			}
			if tc.name == "exact fallback" && !want.Exact {
				t.Fatalf("%s cell %d: sampled, want an exact fallback", tc.name, i)
			}
			a, _ := sample.MarshalResult(got[i])
			b, _ := sample.MarshalResult(want)
			if !bytes.Equal(a, b) {
				t.Errorf("%s cell %d (%s): grouped result differs from its own run:\n  grouped %s\n  alone   %s",
					tc.name, i, cellName(c), a, b)
			}
		}
	}
}

func cellName(c sample.Cell) string {
	return fmt.Sprintf("ROB=%d thr=%d fw=%d dmp=%v L2=%dKB max=%d",
		c.Cfg.ROBSize, c.Cfg.ConfThreshold, c.Cfg.FetchWidth, c.Cfg.DMP, c.Cfg.L2.SizeKB, c.Cfg.MaxInsts)
}
