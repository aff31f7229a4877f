package harness

// Static-selection population gate: the same differential discipline as
// TestGeneratedPopulationDifferential, but with every profile replaced by a
// static estimate — all 8 selection algorithms must emit verifier-clean
// artifacts from the estimate alone, and the DMP binary selected from it must
// hold the emu-vs-pipeline architectural differential. Plus an end-to-end
// consistency test of the three-way comparison report.

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"dmp/internal/gen"
	"dmp/internal/simcache"
	"dmp/internal/workpool"
)

func TestStaticGeneratedPopulationDifferential(t *testing.T) {
	presets := gen.Presets()
	progs := gen.BuildCorpus(presets, populationCorpusSize(), 11)
	var mu sync.Mutex
	failures := 0
	err := workpool.RunIndexed(context.Background(), len(progs), 0, func(i int) string { return progs[i].Name }, nil, func(i int) error {
		if issues := CheckGeneratedStatic(progs[i]); len(issues) > 0 {
			mu.Lock()
			failures++
			mu.Unlock()
			t.Errorf("%s (seed %d):\n  %s", progs[i].Name, progs[i].Seed, strings.Join(issues, "\n  "))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures == 0 {
		t.Logf("%d generated programs, static-estimate selection: all clean", len(progs))
	}
}

// TestRunPopulationCompare checks the three-way report's internal
// consistency on a small corpus.
func TestRunPopulationCompare(t *testing.T) {
	n := 18
	if testing.Short() {
		n = 6
	}
	progs := gen.BuildCorpus(gen.Presets(), n, 23)
	rep, err := RunPopulationCompare(context.Background(), progs, Options{EvalOptions: EvalOptions{Cache: simcache.New("")}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != n || len(rep.Results) != n {
		t.Fatalf("report covers %d/%d programs", len(rep.Results), n)
	}
	groupN := 0
	for _, g := range rep.Groups {
		groupN += g.N
		if g.Wins+g.Loss+g.Flat != g.N {
			t.Errorf("idiom %s: wins %d + losses %d + flat %d != n %d", g.Idiom, g.Wins, g.Loss, g.Flat, g.N)
		}
		if g.MeanBias < 0 || g.MeanBias > 1 || g.MeanWeightedBias < 0 || g.MeanWeightedBias > 1 {
			t.Errorf("idiom %s: bias out of [0,1]: %v / %v", g.Idiom, g.MeanBias, g.MeanWeightedBias)
		}
		if math.Abs(g.MeanRankCorr) > 1+1e-9 {
			t.Errorf("idiom %s: rank correlation %v out of [-1,1]", g.Idiom, g.MeanRankCorr)
		}
	}
	if groupN != n {
		t.Fatalf("idiom groups cover %d programs, want %d", groupN, n)
	}
	for _, r := range rep.Results {
		if r.BaseIPC <= 0 {
			t.Errorf("%s: degenerate baseline IPC %v", r.Name, r.BaseIPC)
		}
		for src, name := range SourceNames {
			if r.IPC[src] <= 0 {
				t.Errorf("%s: degenerate %s DMP IPC %v", r.Name, name, r.IPC[src])
			}
		}
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{"three-way population", "stat%", "train%", "orac%", "rho", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	for _, g := range rep.Groups {
		if !strings.Contains(out, g.Idiom) {
			t.Errorf("render missing idiom row %q", g.Idiom)
		}
	}
}
