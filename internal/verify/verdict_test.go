package verify_test

// Tests of the per-code-array verdict: a run that skips the code passes on
// a clean verdict must return exactly what a cold run returns, a verdict
// must never outlive an in-place change to the code it covers, and the memo
// holding the verdicts must stay safe and bounded.

import (
	"reflect"
	"sync"
	"testing"

	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// annotPasses is the pass list CheckAnnots runs.
var annotPasses = []string{verify.PassBinary, verify.PassAnnot}

// TestVerdictSnapshotGuard changes a verified program's code, symbols or
// header in place and checks that no entry point serves the old verdict.
func TestVerdictSnapshotGuard(t *testing.T) {
	base := goodProgram(t)
	for _, tc := range []struct {
		name     string
		wantPass string // "" when the change is legal
		mutate   func(p *isa.Program)
	}{
		{"instruction-register", verify.PassBinary, func(p *isa.Program) {
			p.Code[firstNonControl(t, p, "main")].Rd = isa.NumRegs + 7
		}},
		{"instruction-undefined-temp", verify.PassDataflow, func(p *isa.Program) {
			p.Code[firstNonControl(t, p, "longh")] = isa.Inst{Op: isa.OpAdd, Rd: 8, Rs1: isa.RegTempFirst, Rs2: isa.RegTempFirst}
		}},
		{"function-symbol", verify.PassBinary, func(p *isa.Program) {
			p.Funcs[1].Entry = p.Funcs[0].End - 1
		}},
		{"entry", verify.PassBinary, func(p *isa.Program) {
			p.Entry = len(p.Code) + 1
		}},
		{"global-words", "", func(p *isa.Program) {
			p.GlobalWords++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := deepCopy(base)
			if diags := verify.Run(p, verify.Options{Program: tc.name}); len(diags) > 0 {
				t.Fatalf("clean copy: %v", diags)
			}
			if !verify.HasCleanVerdict(p) {
				t.Fatal("a clean full run recorded no verdict")
			}
			tc.mutate(p)
			if verify.HasCleanVerdict(p) {
				t.Fatal("the verdict survived an in-place change")
			}
			got := verify.Run(p, verify.Options{Program: tc.name})
			if want := verify.RunReference(p, verify.Options{Program: tc.name}); !reflect.DeepEqual(got, want) {
				t.Fatalf("Run = %v, cold reference %v", got, want)
			}
			if tc.wantPass == "" {
				if len(got) > 0 {
					t.Fatalf("legal change reported: %v", got)
				}
				if !verify.HasCleanVerdict(p) {
					t.Fatal("a clean rerun recorded no verdict")
				}
				return
			}
			if !hasPass(got, tc.wantPass) {
				t.Fatalf("Run: no %s diagnostic in %v", tc.wantPass, got)
			}
			if tc.wantPass != verify.PassBinary {
				return
			}
			if err := verify.CheckAnnots(p, tc.name); err == nil {
				t.Error("CheckAnnots missed the change")
			}
			if diags := verify.ProfileDiagnostics(p, &profile.Profile{}, tc.name); !hasPass(diags, verify.PassBinary) {
				t.Errorf("ProfileDiagnostics: no binary diagnostic in %v", diags)
			}
		})
	}
}

func hasPass(diags []verify.Diagnostic, pass string) bool {
	for _, d := range diags {
		if d.Pass == pass {
			return true
		}
	}
	return false
}

// TestVerdictColdWarmIdentical runs every mutant of TestMutationsAreDetected
// twice, cold and then warm, as Run and as CheckAnnots' pass list: both runs
// must return the cold reference's diagnostics. A mutant whose code is
// intact must have its code passes skipped on the warm run.
func TestVerdictColdWarmIdentical(t *testing.T) {
	base := goodProgram(t)
	for _, tc := range mutationCases() {
		for _, passes := range [][]string{nil, annotPasses} {
			mut := deepCopy(base)
			tc.mutate(t, mut)
			opts := verify.Options{Program: tc.name, Passes: passes}
			want := verify.RunReference(mut, opts)
			if passes != nil {
				want = filterPasses(want, passes)
			}
			cold := verify.Run(mut, opts)
			// The code passes decide; a CheckAnnots-shaped run records no
			// verdict, so give the warm run one from a full run.
			verify.Run(mut, verify.Options{Program: tc.name})
			codeIntact := tc.wantPass == verify.PassAnnot
			if verify.HasCleanVerdict(mut) != codeIntact {
				t.Errorf("%s: clean verdict %v, want %v", tc.name, !codeIntact, codeIntact)
			}
			warm := verify.Run(mut, opts)
			if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(warm, want) {
				t.Errorf("%s passes %v:\ncold %v\nwarm %v\nreference %v", tc.name, passes, cold, warm, want)
			}
		}
	}
}

// filterPasses keeps the diagnostics of the named passes; RunReference
// always runs every pass, and the binary pass's findings stop it as they
// stop Run.
func filterPasses(diags []verify.Diagnostic, passes []string) []verify.Diagnostic {
	var out []verify.Diagnostic
	for _, d := range diags {
		for _, p := range passes {
			if d.Pass == p {
				out = append(out, d)
			}
		}
	}
	return out
}

// TestVerdictConcurrentFirstUse verifies one fresh code array from several
// goroutines at once: every run is clean and one verdict results. Run it
// under -race.
func TestVerdictConcurrentFirstUse(t *testing.T) {
	p := deepCopy(goodProgram(t))
	verify.ResetVerdicts()
	const runs = 8
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if diags := verify.Run(p.WithAnnots(p.Annots), verify.Options{Program: "concurrent"}); len(diags) > 0 {
				t.Errorf("run %d: %v", i, diags)
			}
			errs[i] = verify.CheckAnnots(p, "concurrent")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("CheckAnnots %d: %v", i, err)
		}
	}
	if n := verify.VerdictCount(); n != 1 || !verify.HasCleanVerdict(p) {
		t.Fatalf("%d verdicts after concurrent first use of one code array (held: %v), want 1", n, verify.HasCleanVerdict(p))
	}
}

// TestVerdictMemoBounded verifies more distinct code arrays than the memo's
// cap and checks that it never holds more.
func TestVerdictMemoBounded(t *testing.T) {
	base := goodProgram(t)
	for i := 0; i < verify.VerdictCap()+16; i++ {
		if diags := verify.Run(deepCopy(base), verify.Options{Program: "bounded"}); len(diags) > 0 {
			t.Fatal(diags[0])
		}
		if n := verify.VerdictCount(); n > verify.VerdictCap() {
			t.Fatalf("memo grew to %d verdicts, cap is %d", n, verify.VerdictCap())
		}
	}
}
