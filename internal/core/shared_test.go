package core_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/isa"
	"dmp/internal/profile"
)

// selection is one selection the repository makes, by name.
type selection struct {
	name string
	run  func(*isa.Program, *profile.Profile) (*core.Result, error)
}

// repoSelections lists every selection the repository runs: the eight
// named algorithms, the Figure 5 configurations, Figure 7's threshold grid,
// the ablations of bench_test.go and the 2D-profiling filter built from sp.
func repoSelections(sp *profile.SliceProfile) []selection {
	var sels []selection
	for _, name := range core.Algorithms() {
		sels = append(sels, selection{name, func(prog *isa.Program, prof *profile.Profile) (*core.Result, error) {
			return core.SelectByName(prog, prof, name)
		}})
	}
	params := func(name string, p core.Params) {
		sels = append(sels, selection{name, func(prog *isa.Program, prof *profile.Profile) (*core.Result, error) {
			return core.Select(prog, prof, p)
		}})
	}
	for _, c := range append(harness.HeuristicConfigs(), harness.CostConfigs()...) {
		params("fig5-"+c.Name, c.Params)
	}
	for _, mi := range []int{10, 25, 50, 100, 200} {
		for _, mm := range []float64{0.90, 0.50, 0.30, 0.05, 0.01} {
			p := harness.HeuristicConfigs()[1].Params // exact+freq, as Fig7 builds it
			p.MaxInstr, p.MaxCbr, p.MinMergeProb = mi, max(mi/10, 1), mm
			params(fmt.Sprintf("fig7-%d-%g", mi, mm), p)
		}
	}
	noChains := core.HeuristicParams()
	noChains.DisableChainReduction = true
	params("no-chains", noChains)
	oneCFM := core.HeuristicParams()
	oneCFM.MaxCFM = 1
	params("maxcfm-1", oneCFM)
	// Not selections the repository makes: each varies one field of the
	// analysis scope that the ones above vary only together with another,
	// or not at all (chain reduction leaves more than one candidate too
	// rarely for MaxCFM to show alone).
	noChains.MaxCFM = 1
	params("no-chains-maxcfm-1", noChains)
	for _, vary := range []func(*core.Params){
		func(p *core.Params) { p.MaxInstr = 100 },
		func(p *core.Params) { p.MaxCbr = 10 },
		func(p *core.Params) { p.MinExecProb = 0.01 },
	} {
		p := core.HeuristicParams()
		vary(&p)
		params(fmt.Sprintf("scope-%d", len(sels)), p)
	}
	for _, acc := range []float64{0.20, 0.50} {
		p := core.CostParams(core.EdgeWeighted)
		p.AccConf = acc
		params(fmt.Sprintf("accconf-%g", acc), p)
	}
	noShort := core.HeuristicParams()
	noShort.EnableShort = false
	params("no-short", noShort)
	twoD := core.HeuristicParams()
	twoD.TwoD = sp
	params("2d", twoD)
	return sels
}

// sharedCase is one program with its profile and 2D slice profile.
type sharedCase struct {
	name string
	prog *isa.Program
	prof *profile.Profile
	sp   *profile.SliceProfile
}

// sharedCases returns the 17 corpus programs profiled on their run tapes
// and n generated programs profiled on their train tapes.
func sharedCases(t *testing.T, n int) []sharedCase {
	t.Helper()
	var cs []sharedCase
	add := func(name string, prog *isa.Program, input []int64) {
		prof, sp, err := profile.Collect2D(prog, input, profile.TwoDOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cs = append(cs, sharedCase{name, prog, prof, sp})
	}
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		add(b.Name, prog, b.Input(bench.RunInput, 1))
	}
	for _, g := range gen.BuildCorpus(gen.Presets(), n, 1) {
		prog, err := codegen.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		add(g.Name, prog, g.TrainInput)
	}
	return cs
}

// diffResults describes how got differs from want, comparing merge
// probabilities bit for bit; "" when they are identical.
func diffResults(got, want *core.Result) string {
	if got.Stats != want.Stats {
		return fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Annots, want.Annots) {
		return fmt.Sprintf("annotations differ: %d vs %d branches", len(got.Annots), len(want.Annots))
	}
	for pc, a := range got.Annots {
		for i, c := range a.CFMs {
			if g, w := math.Float64bits(c.MergeProb), math.Float64bits(want.Annots[pc].CFMs[i].MergeProb); g != w {
				return fmt.Sprintf("branch %d CFM %d: merge probability bits %#x, want %#x", pc, i, g, w)
			}
		}
	}
	return ""
}

// TestSelectSharedMatchesCold checks that sharing hammock analyses between
// selections changes no result. Every selection the repository makes runs
// on every corpus program and on generated programs four ways: cold (the
// memo emptied before each call, so each analyses from scratch), warm (in
// order and then again, so later calls find the analyses of earlier ones),
// in reverse order, and all at once from concurrent goroutines, the last two
// from an empty memo. Annotations, merge probability bits and statistics
// must match the cold run's.
func TestSelectSharedMatchesCold(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	for _, c := range sharedCases(t, n) {
		sels := repoSelections(c.sp)
		cold := make([]*core.Result, len(sels))
		for i, s := range sels {
			core.ForgetHammocks()
			res, err := s.run(c.prog, c.prof)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, s.name, err)
			}
			cold[i] = res
		}
		check := func(mode string, i int, res *core.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s %s: %v", c.name, sels[i].name, mode, err)
			}
			if d := diffResults(res, cold[i]); d != "" {
				t.Fatalf("%s %s %s: %s", c.name, sels[i].name, mode, d)
			}
		}

		core.ForgetHammocks()
		for _, mode := range []string{"first use", "warm"} {
			for i, s := range sels {
				res, err := s.run(c.prog, c.prof)
				check(mode, i, res, err)
			}
		}
		core.ForgetHammocks()
		for i := len(sels) - 1; i >= 0; i-- {
			res, err := sels[i].run(c.prog, c.prof)
			check("reversed", i, res, err)
		}

		core.ForgetHammocks()
		results := make([]*core.Result, len(sels))
		errs := make([]error, len(sels))
		var wg sync.WaitGroup
		for i, s := range sels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = s.run(c.prog, c.prof)
			}()
		}
		wg.Wait()
		for i := range sels {
			check("concurrent", i, results[i], errs[i])
		}
	}
}
