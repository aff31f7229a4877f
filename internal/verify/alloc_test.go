package verify_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// TestSelectVerifyAllocs pins the compiler layers' garbage: a heur
// selection on gcc followed by a full verifier run must stay under an
// allocation count and a byte bound set about 25% above what they need,
// taking the lowest of three measured rounds per case
// (warm 83 allocations, 4 kB; fresh-profile 407 allocations, 45 kB; cold
// 1004 allocations, 98 kB). In the warm case the code array's analyses are
// already shared (cfg.Shared), its code holds a clean verdict and the
// profile's hammock analyses are memoized, so the run only decides and the
// legality check and the verifier check only the annotation sidecar. In the
// fresh-profile case each run gets a copy of the profile whose counters no
// earlier run had (they differ at the last pc, which holds no branch), so
// it enumerates every hammock's paths again. In the cold case each run also
// gets a fresh clone of the code array, so the run builds the analyses once
// for selection, its legality check and the verifier together, and the
// verifier runs every code pass; its bounds predate the hammock memo (1200
// allocations, 108 kB). Before the analyses were shared, every run built
// them three times: 1244 allocations, 115 kB; before the verdicts, the warm
// case ran the code passes too: 942 allocations, 71 kB; before the
// annotation pass reused its reachability and distance scratch, 455
// allocations, 40 kB (warm); before the hammock memo, the warm case
// enumerated paths too: 361 allocations, 38 kB.
func TestSelectVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not stable under -race")
	}
	b := bench.ByName("gcc")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(prog, b.Input(bench.RunInput, 1), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *isa.Program, prof *profile.Profile) {
		res, err := core.Select(p, prof, core.HeuristicParams())
		if err != nil {
			t.Fatal(err)
		}
		if diags := verify.Run(p.WithAnnots(res.Annots), verify.Options{Program: "gcc"}); len(diags) > 0 {
			t.Fatal(diags[0])
		}
	}
	run(prog, prof) // warm any lazily built state
	// ReadMemStats counts every goroutine's allocations, so a collector or
	// test-runner goroutine can add a few hundred bytes to one round; the
	// lowest of several rounds is the run's own cost.
	const runs, rounds = 5, 3
	for _, tc := range []struct {
		name                string
		coldCode, coldProf  bool
		maxAllocs, maxBytes uint64
	}{
		{"warm", false, false, 105, 5_000},
		{"fresh-profile", false, true, 515, 57_000},
		{"cold", true, true, 1200, 108_000},
	} {
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for round := 0; round < rounds; round++ {
			progs := make([]*isa.Program, runs)
			profs := make([]*profile.Profile, runs)
			for i := range progs {
				progs[i], profs[i] = prog, prof
				if tc.coldCode {
					q := *prog
					q.Code = slices.Clone(prog.Code)
					progs[i] = &q
				}
				if tc.coldProf {
					c := *prof
					c.Taken = slices.Clone(prof.Taken)
					c.Taken[len(c.Taken)-1] += uint64(round*runs + i + 1)
					profs[i] = &c
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, p := range progs {
				run(p, profs[i])
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s: Select(heur) + verify.Run on gcc: %d allocations, %d bytes", tc.name, allocs, bytes)
		if allocs > tc.maxAllocs || bytes > tc.maxBytes {
			t.Errorf("%s: %d allocations and %d bytes per run, want at most %d and %d", tc.name, allocs, bytes, tc.maxAllocs, tc.maxBytes)
		}
	}
}
