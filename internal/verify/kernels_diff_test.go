package verify_test

// Differential test of the verifier's kernels against the references in
// kernels_ref_test.go: the arena-backed dominance fixpoint and the
// summarised def-before-use analysis must give the same dominator sets and
// per-block defined-register sets on every function of the 17 corpus
// programs and of a 200-program generated corpus, and the same diagnostics
// on every heur-annotated program and every mutant of TestMutationsAreDetected.

import (
	"reflect"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// diffRun checks one program: kernels against references, then the
// diagnostics of a full run against the reference run.
func diffRun(t *testing.T, name string, p *isa.Program) {
	t.Helper()
	for _, m := range verify.KernelMismatches(p) {
		t.Errorf("%s: %s", name, m)
	}
	got := verify.Run(p, verify.Options{Program: name})
	want := verify.RunReference(p, verify.Options{Program: name})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: diagnostics\n%v\nreference\n%v", name, got, want)
	}
}

func TestKernelsMatchReference(t *testing.T) {
	heur := func(name string, prog *isa.Program, tape []int64, max uint64) {
		prof, err := profile.Collect(prog, tape, profile.Options{MaxInsts: max})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := core.Select(prog, prof, core.HeuristicParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffRun(t, name+"/heur", prog.WithAnnots(res.Annots))
	}
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		diffRun(t, b.Name, prog)
		for _, set := range []bench.InputSet{bench.RunInput, bench.TrainInput} {
			heur(b.Name+"/"+set.String(), prog, b.Input(set, 1), 0)
		}
	}
	n := 200
	if testing.Short() || raceEnabled {
		n = 20
	}
	for _, g := range gen.BuildCorpus(gen.Presets(), n, 1) {
		prog, err := codegen.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		diffRun(t, g.Name, prog)
		heur(g.Name, prog, g.TrainInput, 50_000_000)
	}
}

func TestKernelsMatchReferenceOnMutants(t *testing.T) {
	base := goodProgram(t)
	diffRun(t, "good", base)
	for _, tc := range mutationCases() {
		mut := deepCopy(base)
		tc.mutate(t, mut)
		diffRun(t, tc.name, mut)
	}
}
