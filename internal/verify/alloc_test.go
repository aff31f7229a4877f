package verify_test

import (
	"runtime"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// TestSelectVerifyAllocs pins the compiler layers' garbage: a heur
// selection on gcc followed by a full verifier run must stay under an
// allocation count and a byte bound set about 25% above what the dense CFG
// tables, path chunks, bitset arenas and in-place encoding need (1244
// allocations, 115 kB; the map-based kernels they replaced took 2749
// allocations, 162 kB).
func TestSelectVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not stable under -race")
	}
	const maxAllocs, maxBytes = 1550, 145_000
	b := bench.ByName("gcc")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(prog, b.Input(bench.RunInput, 1), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := core.Select(prog, prof, core.HeuristicParams())
		if err != nil {
			t.Fatal(err)
		}
		if diags := verify.Run(prog.WithAnnots(res.Annots), verify.Options{Program: "gcc"}); len(diags) > 0 {
			t.Fatal(diags[0])
		}
	}
	run() // warm any lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Select(heur) + verify.Run on gcc: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("%d allocations and %d bytes per run, want at most %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
