package harness

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmp/internal/pipeline"
)

// The harness tests run on a fast subset of the corpus with a capped
// instruction budget; the full evaluation lives in cmd/dmpbench and the root
// bench targets. The subset deliberately includes a short-hammock benchmark
// (mcf), a frequently-hammock benchmark (vortex), a loop benchmark (parser)
// and a return-CFM benchmark (twolf).
var testOpts = Options{
	Benchmarks:  []string{"mcf", "vortex", "parser", "twolf"},
	EvalOptions: EvalOptions{MaxInsts: 120_000},
}

var (
	sessOnce sync.Once
	sessVal  *Session
	sessErr  error
)

func testSession(t *testing.T) *Session {
	t.Helper()
	sessOnce.Do(func() { sessVal, sessErr = NewSession(testOpts) })
	if sessErr != nil {
		t.Fatal(sessErr)
	}
	return sessVal
}

func TestSessionSetup(t *testing.T) {
	s := testSession(t)
	if len(s.Workloads) != 4 {
		t.Fatalf("workloads = %d", len(s.Workloads))
	}
	names := s.Names()
	if names[0] != "mcf" || names[3] != "twolf" {
		t.Errorf("names = %v", names)
	}
	for _, w := range s.Workloads {
		if w.ProfRun.TotalRetired == 0 || w.Train.TotalRetired == 0 {
			t.Errorf("%s: empty profiles", w.Bench.Name)
		}
	}
}

func TestSessionUnknownBenchmark(t *testing.T) {
	if _, err := NewSession(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBaselineCached(t *testing.T) {
	s := testSession(t)
	w := s.Workloads[0]
	a, err := w.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("baseline not cached deterministically")
	}
	if a.IPC() <= 0 {
		t.Errorf("baseline IPC = %v", a.IPC())
	}
}

func TestConfigLists(t *testing.T) {
	h := HeuristicConfigs()
	if len(h) != 5 || h[0].Name != "exact" || h[4].Name != "All-best-heur" {
		t.Errorf("heuristic configs = %+v", h)
	}
	if h[0].Params.EnableFreq || !h[4].Params.EnableLoops {
		t.Error("cumulative flags wrong")
	}
	c := CostConfigs()
	if len(c) != 5 || c[0].Name != "cost-long" || c[4].Name != "All-best-cost" {
		t.Errorf("cost configs = %+v", c)
	}
	if !c[0].Params.UseCostModel {
		t.Error("cost configs must use the cost model")
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"perceptron", "JRS", "reorder buffer", "CFM registers"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	s := testSession(t)
	tbl, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Row("BaseIPC")
	if row == nil {
		t.Fatal("no BaseIPC row")
	}
	for _, n := range s.Names() {
		if row[n] <= 0 || row[n] > 8 {
			t.Errorf("%s base IPC = %v", n, row[n])
		}
	}
	if div := tbl.Row("Diverge br."); div["mcf"] <= 0 {
		t.Errorf("mcf diverge branches = %v", div["mcf"])
	}
	if cfm := tbl.Row("Avg #CFM"); cfm["vortex"] < 1 {
		t.Errorf("vortex avg CFM = %v", cfm["vortex"])
	}
}

// TestFig5ShapeHolds is the headline shape check: All-best-heur must beat
// plain Alg-exact by a wide margin on this subset, and every cumulative step
// must keep the mean improvement positive.
func TestFig5ShapeHolds(t *testing.T) {
	s := testSession(t)
	tbl, err := Fig5Left(s)
	if err != nil {
		t.Fatal(err)
	}
	exact := tbl.Mean("exact")
	best := tbl.Mean("All-best-heur")
	if best <= 0 {
		t.Fatalf("All-best-heur mean = %v, want positive", best)
	}
	if best < exact+3 {
		t.Errorf("All-best-heur %v not clearly above exact %v", best, exact)
	}
	// Short hammocks must carry mcf (the paper's +14% benchmark).
	short := tbl.Row("exact+freq+short")["mcf"]
	preShort := tbl.Row("exact+freq")["mcf"]
	if short < preShort+3 {
		t.Errorf("short hammocks on mcf: %v -> %v, want a clear gain", preShort, short)
	}
	// Return CFMs must carry twolf (the paper's +8% benchmark).
	ret := tbl.Row("exact+freq+short+ret")["twolf"]
	preRet := tbl.Row("exact+freq+short")["twolf"]
	if ret < preRet+3 {
		t.Errorf("return CFMs on twolf: %v -> %v, want a clear gain", preRet, ret)
	}
	// Loops must carry parser (the paper's +14% benchmark).
	loop := tbl.Row("All-best-heur")["parser"]
	preLoop := tbl.Row("exact+freq+short+ret")["parser"]
	if loop < preLoop+3 {
		t.Errorf("loops on parser: %v -> %v, want a clear gain", preLoop, loop)
	}
}

func TestFig5RightCostModelCompetitive(t *testing.T) {
	s := testSession(t)
	left, err := Fig5Left(s)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Fig5Right(s)
	if err != nil {
		t.Fatal(err)
	}
	heur := left.Mean("All-best-heur")
	cost := right.Mean("All-best-cost")
	if cost <= 0 {
		t.Fatalf("All-best-cost mean = %v", cost)
	}
	// Section 7.1: the cost model provides performance equivalent to the
	// tuned heuristics (within a few points either way).
	if cost < heur-6 {
		t.Errorf("All-best-cost %v far below All-best-heur %v", cost, heur)
	}
}

func TestFig6FlushesDrop(t *testing.T) {
	s := testSession(t)
	tbl, err := Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	base := tbl.Mean("baseline")
	dmp := tbl.Mean("All-best-heur")
	if dmp >= base {
		t.Errorf("DMP flushes/KI %v >= baseline %v", dmp, base)
	}
}

func TestFig7ThresholdsMatter(t *testing.T) {
	s := testSession(t)
	tbl, err := Fig7(s, []int{10, 50}, []float64{0.90, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	best := tbl.Mean("MAX_INSTR=50 MIN_MERGE=1%")
	tiny := tbl.Mean("MAX_INSTR=10 MIN_MERGE=90%")
	if best < tiny {
		t.Errorf("paper's best thresholds (%v) below the most restrictive (%v)", best, tiny)
	}
}

func TestFig8BaselinesLose(t *testing.T) {
	s := testSession(t)
	tbl, err := Fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	best := tbl.Mean("All-best-heur")
	for _, name := range []string{"Every-br", "Random-50", "High-BP-5", "Immediate", "If-else"} {
		if simple := tbl.Mean(name); simple >= best {
			t.Errorf("%s (%v) >= All-best-heur (%v)", name, simple, best)
		}
	}
}

func TestFig9InputSetInsensitivity(t *testing.T) {
	s := testSession(t)
	tbl, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	same := tbl.Mean("All-best-heur-same")
	diff := tbl.Mean("All-best-heur-diff")
	// Section 7.3: profiling with a different input costs only a small
	// fraction of the improvement.
	if diff < same-6 {
		t.Errorf("diff-input improvement %v collapsed versus same-input %v", diff, same)
	}
}

func TestFig10OverlapDominates(t *testing.T) {
	s := testSession(t)
	tbl, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	either := tbl.Row("either-run-train")
	onlyRun := tbl.Row("only-run")
	onlyTrain := tbl.Row("only-train")
	for _, n := range s.Names() {
		total := either[n] + onlyRun[n] + onlyTrain[n]
		if total < 99.9 || total > 100.1 {
			t.Errorf("%s: percentages sum to %v", n, total)
		}
		// Section 7.3: most dynamic diverge branches are selected under
		// either input set.
		if either[n] < 50 {
			t.Errorf("%s: either-run-train = %v%%, want majority", n, either[n])
		}
	}
}

func TestImprovementHelper(t *testing.T) {
	a := statsWithIPC(1.0)
	b := statsWithIPC(1.2)
	if got := Improvement(a, b); got < 19.9 || got > 20.1 {
		t.Errorf("Improvement = %v, want 20", got)
	}
	if got := Improvement(pipeline.Stats{}, b); got != 0 {
		t.Errorf("Improvement over zero baseline = %v, want 0", got)
	}
}

func statsWithIPC(ipc float64) (s pipeline.Stats) {
	s.Cycles = 1000
	s.Retired = uint64(ipc * 1000)
	return s
}
