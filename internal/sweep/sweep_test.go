package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"dmp/internal/harness"
	"dmp/internal/pipeline"
	"dmp/internal/simcache"
	"dmp/internal/stats"
)

func testGrid(t *testing.T) *GridSpec {
	t.Helper()
	g := &GridSpec{Axes: []Axis{
		{Field: "ROBSize", Values: []string{"128", "512"}},
		{Field: "DMP", Values: []string{"false", "true"}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

func testCorpus(t *testing.T) []Program {
	t.Helper()
	progs, err := FromBench([]string{"gzip", "mcf"}, 1)
	if err != nil {
		t.Fatalf("FromBench: %v", err)
	}
	return progs
}

const testMaxInsts = 30_000

func TestGridCells(t *testing.T) {
	g := testGrid(t)
	cells, err := g.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	// Last axis fastest.
	wantLabels := []string{
		"ROBSize=128 DMP=false", "ROBSize=128 DMP=true",
		"ROBSize=512 DMP=false", "ROBSize=512 DMP=true",
	}
	for i, c := range cells {
		if c.Label() != wantLabels[i] {
			t.Errorf("cell %d label %q, want %q", i, c.Label(), wantLabels[i])
		}
	}
	if cells[0].Config.ROBSize != 128 || cells[0].Config.DMP {
		t.Errorf("cell 0 config not overridden: %+v", cells[0].Config)
	}
	if cells[3].Config.ROBSize != 512 || !cells[3].Config.DMP {
		t.Errorf("cell 3 config not overridden")
	}
	// Non-axis fields keep base values.
	if cells[0].Config.FetchWidth != pipeline.DefaultConfig().FetchWidth {
		t.Errorf("cell 0 FetchWidth diverged from base")
	}
}

func TestSetFieldDiagnostics(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	if err := SetField(&cfg, "L2.SizeKB", "2048"); err != nil {
		t.Fatalf("nested path: %v", err)
	}
	if cfg.L2.SizeKB != 2048 {
		t.Fatalf("nested set did not apply")
	}
	if err := SetField(&cfg, "RobSize", "128"); err == nil {
		t.Fatal("typo field accepted")
	} else if !strings.Contains(err.Error(), "RobSize") || !strings.Contains(err.Error(), "ROBSize") {
		t.Fatalf("diagnostic %q should name the typo and list valid fields", err)
	}
	if err := SetField(&cfg, "ROBSize", "lots"); err == nil {
		t.Fatal("non-integer value accepted")
	} else if !strings.Contains(err.Error(), "ROBSize") {
		t.Fatalf("diagnostic %q should name the axis", err)
	}
	if err := SetField(&cfg, "DMP", "128"); err == nil {
		t.Fatal("non-bool value accepted for bool field")
	}
}

func TestGridRejectsInvalidCell(t *testing.T) {
	g := &GridSpec{Axes: []Axis{{Field: "BTBEntries", Values: []string{"4096", "3000"}}}}
	err := g.Validate()
	if err == nil {
		t.Fatal("grid with non-power-of-two BTBEntries cell validated")
	}
	if !strings.Contains(err.Error(), "BTBEntries=3000") || !strings.Contains(err.Error(), "BTBEntries") {
		t.Fatalf("diagnostic %q should name the cell and the field", err)
	}
}

// TestCSVGoldenRow pins the CSV contract: column order and deterministic
// formatting. Downstream tooling parses these files; a drive-by column
// reorder must fail a test, not a user.
func TestCSVGoldenRow(t *testing.T) {
	axes := []Axis{
		{Field: "ROBSize", Values: []string{"128"}},
		{Field: "DMP", Values: []string{"true"}},
	}
	row := &Row{
		Program:      "gzip",
		Preset:       "",
		Idiom:        "",
		Cell:         "ROBSize=128 DMP=true",
		Coord:        []stats.KV{{Key: "ROBSize", Value: "128"}, {Key: "DMP", Value: "true"}},
		IPC:          1.2345678,
		Cycles:       81004,
		Retired:      100000,
		MPKI:         12.5,
		FlushesPerKI: 10.25,
		DpredEntries: 42,
	}
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	if err := cw.WriteRow(axes, row); err != nil {
		t.Fatalf("WriteRow: %v", err)
	}
	want := "program,preset,idiom,ROBSize,DMP,ipc,ipc_err,cycles,retired,mpki,flushes_per_ki,dpred_entries,sampled\n" +
		"gzip,,,128,true,1.234568,0.000000,81004,100000,12.500000,10.250000,42,false\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden row mismatch:\ngot:  %q\nwant: %q", got, want)
	}
}

func TestSweepRunAndResume(t *testing.T) {
	g := testGrid(t)
	progs := testCorpus(t)
	cache := simcache.New("")
	var buf bytes.Buffer
	opts := Options{
		MaxInsts: testMaxInsts,
		Cache:    cache,
		RowOut:   NewCSVWriter(&buf),
	}
	rep, err := Run(context.Background(), progs, g, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rep.Rows))
	}
	if rep.Skipped != 0 {
		t.Fatalf("fresh run skipped %d cells", rep.Skipped)
	}
	for _, r := range rep.Rows {
		if r.Retired == 0 || r.IPC <= 0 {
			t.Fatalf("row %s/%s degenerate: %+v", r.Program, r.Cell, r)
		}
	}
	// The report row order is deterministic: program order, then cell order.
	if rep.Rows[0].Program != "gzip" || rep.Rows[0].Cell != "ROBSize=128 DMP=false" {
		t.Fatalf("row 0 is %s/%s, want gzip first cell", rep.Rows[0].Program, rep.Rows[0].Cell)
	}
	// Marginals and Best are populated.
	if len(rep.Marginals) != 4 {
		t.Fatalf("got %d marginal levels, want 4 (2 axes x 2 levels)", len(rep.Marginals))
	}
	if len(rep.Best) != 2 {
		t.Fatalf("got %d best groups, want 2", len(rep.Best))
	}

	// Resume: the CSV we streamed marks every cell done; a resumed run
	// skips all of them and re-simulates nothing.
	done, err := ReadDone(bytes.NewReader(buf.Bytes()), g.Axes)
	if err != nil {
		t.Fatalf("ReadDone: %v", err)
	}
	if len(done) != 8 {
		t.Fatalf("resume set has %d entries, want 8", len(done))
	}
	opts2 := Options{MaxInsts: testMaxInsts, Cache: cache, Skip: done.Contains}
	rep2, err := Run(context.Background(), progs, g, opts2)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if len(rep2.Rows) != 0 || rep2.Skipped != 8 {
		t.Fatalf("resumed run produced %d rows, skipped %d; want 0/8", len(rep2.Rows), rep2.Skipped)
	}

	// Partial resume: drop the last CSV row; exactly one cell re-runs.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	partial := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	done3, err := ReadDone(strings.NewReader(partial), g.Axes)
	if err != nil {
		t.Fatalf("ReadDone(partial): %v", err)
	}
	rep3, err := Run(context.Background(), progs, g, Options{MaxInsts: testMaxInsts, Cache: cache, Skip: done3.Contains})
	if err != nil {
		t.Fatalf("partial resumed Run: %v", err)
	}
	if len(rep3.Rows) != 1 || rep3.Skipped != 7 {
		t.Fatalf("partial resume produced %d rows, skipped %d; want 1/7", len(rep3.Rows), rep3.Skipped)
	}
}

// TestSweepMatchesColdRun is the byte-identical check: a cell's stats from
// the sweep engine (shared artifacts, memoized) must equal a cold
// single-config run of the same program and configuration.
func TestSweepMatchesColdRun(t *testing.T) {
	g := testGrid(t)
	progs := testCorpus(t)
	rep, err := Run(context.Background(), progs, g, Options{MaxInsts: testMaxInsts, Cache: simcache.New("")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cells, _ := g.Cells()
	for _, spot := range []int{0, 3, 5} { // gzip first/last cell, mcf second cell
		row := rep.Rows[spot]
		cell := cells[spot%len(cells)]
		prep, err := prepare(context.Background(), progs[spot/len(cells)], "heur", harness.EvalOptions{MaxInsts: testMaxInsts})
		if err != nil {
			t.Fatalf("cold prepare: %v", err)
		}
		cfg := cell.Config
		cfg.MaxInsts = testMaxInsts
		prog := prep.Bare
		if cfg.DMP {
			prog = prep.Annotated
		}
		cold, err := pipeline.Run(prog, progs[spot/len(cells)].RunInput, cfg)
		if err != nil {
			t.Fatalf("cold run: %v", err)
		}
		gotJSON, _ := json.Marshal(row.Stats)
		wantJSON, _ := json.Marshal(cold)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("row %s/%s stats differ from cold run:\nsweep: %s\ncold:  %s",
				row.Program, row.Cell, gotJSON, wantJSON)
		}
	}
}

// TestSweepNaiveMatches checks that phase-level reuse does not change the
// answer: the engine's rows must equal the reuse-free reference's.
func TestSweepNaiveMatches(t *testing.T) {
	g := &GridSpec{Axes: []Axis{{Field: "DMP", Values: []string{"false", "true"}}}}
	progs := testCorpus(t)[:1]
	fast, err := Run(context.Background(), progs, g, Options{MaxInsts: testMaxInsts, Cache: simcache.New("")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	naive := runNaive(t, progs, g, testMaxInsts)
	if len(fast.Rows) != len(naive) {
		t.Fatalf("row counts differ: %d vs %d", len(fast.Rows), len(naive))
	}
	for i := range fast.Rows {
		a, _ := json.Marshal(fast.Rows[i].Stats)
		b, _ := json.Marshal(naive[i].Stats)
		if !bytes.Equal(a, b) {
			t.Fatalf("row %d stats differ between reuse and naive mode", i)
		}
	}
}

// runNaive is the reuse-free reference: every (program, cell) pair prepares
// from scratch with a private cache, exactly like looping a single-config
// tool over the grid. It returns the rows in (program, cell) order.
func runNaive(t *testing.T, progs []Program, g *GridSpec, maxInsts uint64) []Row {
	t.Helper()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for _, p := range progs {
		for _, c := range cells {
			opts := harness.EvalOptions{Cache: simcache.New(""), MaxInsts: maxInsts}
			prep, err := prepare(context.Background(), p, "heur", opts)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			row, err := simulateCells(context.Background(), prep, p, []Cell{c}, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, c.Label(), err)
			}
			rows = append(rows, *row[0])
		}
	}
	return rows
}

// TestSweepCancelMidGrid proves a cancelled sweep leaves well-formed partial
// output and no torn simcache entries: the CSV parses, every written row is
// complete, and re-running against the same cache matches a fresh
// from-scratch run byte for byte.
func TestSweepCancelMidGrid(t *testing.T) {
	g := testGrid(t)
	progs := testCorpus(t)
	cache := simcache.New("")
	var buf bytes.Buffer

	ctx, cancel := context.WithCancel(context.Background())
	var fired bool
	opts := Options{
		MaxInsts: testMaxInsts,
		Cache:    cache,
		RowOut:   NewCSVWriter(&buf),
		Progress: func(done, skipped, total int) {
			if done >= 2 && !fired {
				fired = true
				cancel()
			}
		},
	}
	if _, err := Run(ctx, progs, g, opts); err == nil {
		t.Fatal("cancelled Run returned nil error")
	}

	// Partial CSV is well-formed: parses, and every record has the full
	// column count (csv.Reader enforces per-record field counts).
	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("partial CSV does not parse: %v", err)
	}
	if len(recs) < 1 {
		t.Fatal("no header in partial CSV")
	}
	for i, rec := range recs {
		if len(rec) != len(Header(g.Axes)) {
			t.Fatalf("record %d has %d fields, want %d", i, len(rec), len(Header(g.Axes)))
		}
	}

	// No torn simcache entries: a completed run against the same cache must
	// be byte-identical to a run against a fresh cache.
	resumed, err := Run(context.Background(), progs, g, Options{MaxInsts: testMaxInsts, Cache: cache})
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	fresh, err := Run(context.Background(), progs, g, Options{MaxInsts: testMaxInsts, Cache: simcache.New("")})
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	if len(resumed.Rows) != len(fresh.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(resumed.Rows), len(fresh.Rows))
	}
	for i := range fresh.Rows {
		a, _ := json.Marshal(resumed.Rows[i].Stats)
		b, _ := json.Marshal(fresh.Rows[i].Stats)
		if !bytes.Equal(a, b) {
			t.Fatalf("row %d differs after cancel+resume: torn cache entry?", i)
		}
	}
}

func TestReadDoneRejectsMismatchedHeader(t *testing.T) {
	axes := []Axis{{Field: "ROBSize", Values: []string{"128"}}}
	other := "program,preset,idiom,FetchWidth,ipc,ipc_err,cycles,retired,mpki,flushes_per_ki,dpred_entries,sampled\n"
	if _, err := ReadDone(strings.NewReader(other), axes); err == nil {
		t.Fatal("mismatched header accepted for resume")
	}
}

func TestAxisMarginals(t *testing.T) {
	points := []stats.SweepPoint{
		{Group: "a", Coord: []stats.KV{{Key: "ROB", Value: "128"}}, Value: 1.0},
		{Group: "a", Coord: []stats.KV{{Key: "ROB", Value: "512"}}, Value: 1.5},
		{Group: "b", Coord: []stats.KV{{Key: "ROB", Value: "128"}}, Value: 2.0},
		{Group: "b", Coord: []stats.KV{{Key: "ROB", Value: "512"}}, Value: 2.5},
	}
	ms := stats.AxisMarginals(points)
	if len(ms) != 2 {
		t.Fatalf("got %d levels, want 2", len(ms))
	}
	if ms[0].Level != "128" || ms[0].Mean != 1.5 || ms[0].DeltaPct != 0 {
		t.Fatalf("level 128: %+v", ms[0])
	}
	if ms[1].Level != "512" || ms[1].Mean != 2.0 {
		t.Fatalf("level 512: %+v", ms[1])
	}
	wantDelta := (2.0/1.5 - 1) * 100
	if d := ms[1].DeltaPct - wantDelta; d > 1e-9 || d < -1e-9 {
		t.Fatalf("delta %.4f, want %.4f", ms[1].DeltaPct, wantDelta)
	}
	best := stats.BestPerGroup(points)
	if len(best) != 2 || best[0].Group != "a" || best[0].Value != 1.5 || best[0].N != 2 {
		t.Fatalf("best: %+v", best)
	}
}
