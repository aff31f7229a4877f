package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"dmp/internal/bench"
	"dmp/internal/cfg"
	"dmp/internal/profile"
)

// gccProfiles returns gcc's binary with its run- and train-tape profiles.
func gccProfiles(t *testing.T) (*bench.Benchmark, *profile.Profile, *profile.Profile) {
	t.Helper()
	b := bench.ByName("gcc")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run, err := profile.Collect(prog, b.Input(bench.RunInput, 1), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	train, err := profile.Collect(prog, b.Input(bench.TrainInput, 1), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b, run, train
}

// deepCopy returns a copy of prof that shares no counter array with it.
func deepCopy(prof *profile.Profile) *profile.Profile {
	c := *prof
	c.ExecCount, c.Taken = slices.Clone(prof.ExecCount), slices.Clone(prof.Taken)
	c.NotTaken, c.Mispred = slices.Clone(prof.NotTaken), slices.Clone(prof.Mispred)
	return &c
}

// TestHammockMemoGuard changes a profile's branch counters in place after
// its analyses are memoized: the next selection must match a cold one on
// the changed counters, while a second profile with the first one's old
// counters keeps being served its own results. It then plants another
// profile's analyses under a key, as a hash collision would, and checks
// that the exact compare turns them away.
func TestHammockMemoGuard(t *testing.T) {
	b, run, train := gccProfiles(t)
	prog, _ := b.Compile()
	cold := func(prof *profile.Profile, params Params) *Result {
		t.Helper()
		ForgetHammocks()
		res, err := Select(prog, prof, params)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *profile.Profile)
	}{
		{"taken", func(p *profile.Profile) { copy(p.Taken, train.Taken) }},
		{"not-taken", func(p *profile.Profile) { copy(p.NotTaken, train.NotTaken) }},
	} {
		for name, params := range map[string]Params{"heur": HeuristicParams(), "cost-edge": CostParams(EdgeWeighted)} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				prof, twin := deepCopy(run), deepCopy(run)
				before := cold(prof, params)
				if got, err := Select(prog, twin, params); err != nil || !reflect.DeepEqual(got, before) {
					t.Fatalf("a profile with equal counters selected %+v (%v), want %+v", got.Stats, err, before.Stats)
				}
				tc.mutate(prof)
				got, err := Select(prog, prof, params)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, cold(prof, params)) {
					t.Fatal("after an in-place change the selection differs from a cold one")
				}
				if reflect.DeepEqual(got, before) {
					t.Fatal("the change moved no selection: the test shows nothing")
				}
				if again, err := Select(prog, twin, params); err != nil || !reflect.DeepEqual(again, before) {
					t.Fatalf("the unchanged twin selected %+v (%v), want %+v", again.Stats, err, before.Stats)
				}
			})
		}
	}
	t.Run("collision", func(t *testing.T) {
		params := CostParams(EdgeWeighted)
		want := cold(run, params)
		if _, err := Select(prog, train, params); err != nil {
			t.Fatal(err)
		}
		hammockMemo.Put(hammocksOf(prog, run, params).key, hammocksOf(prog, train, params))
		if got, err := Select(prog, run, params); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("served another profile's analyses: %+v (%v), want %+v", got.Stats, err, want.Stats)
		}
	})
}

// TestHammockMemoBoundedPinsNoProfile checks that the memo stays within its
// cap however many profiles select, and that it keeps no profile alive: a
// profile dropped after selecting is collected.
func TestHammockMemoBoundedPinsNoProfile(t *testing.T) {
	b, run, _ := gccProfiles(t)
	prog, _ := b.Compile()
	for i := 0; i < hammockMemo.Cap+8; i++ {
		prof := deepCopy(run)
		prof.Taken[0] += uint64(i) // counters of its own, so a key of its own
		if _, err := Select(prog, prof, HeuristicParams()); err != nil {
			t.Fatal(err)
		}
		if n := hammockMemo.Len(); n > hammockMemo.Cap {
			t.Fatalf("%d entries, cap %d", n, hammockMemo.Cap)
		}
	}

	collected := make(chan struct{})
	prof := deepCopy(run)
	runtime.SetFinalizer(prof, func(*profile.Profile) { close(collected) })
	if _, err := Select(prog, prof, HeuristicParams()); err != nil {
		t.Fatal(err)
	}
	prof = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("the memo keeps a dropped profile alive")
}

// instsBefore is the per-candidate walk the one-walk accounting replaced:
// the instructions on p before the first occurrence of block id, or the
// whole path's when id is not on it.
func instsBefore(g *cfg.Graph, p *cfg.Path, id, cw int) int {
	n := 0
	for i, b := range p.Blocks {
		if b == id {
			return n
		}
		if p.End == cfg.EndMerged && i == len(p.Blocks)-1 {
			break
		}
		n += g.BlockWeight(b, cw)
	}
	return p.Insts
}

// TestFetchedMatchesPerCandidateWalk checks the one-walk accounting of
// every hammock of the corpus, under the heuristic and cost-model scopes,
// bit for bit against a walk per candidate and method.
func TestFetchedMatchesPerCandidateWalk(t *testing.T) {
	checked := 0
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Collect(prog, b.Input(bench.TrainInput, 1), profile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range []Params{HeuristicParams(), CostParams(EdgeWeighted)} {
			sc := hammocksOf(prog, prof, params).key
			for _, fa := range cfg.Shared(prog).Funcs {
				for _, brPC := range fa.Graph.CondBranches() {
					g := fa.Graph
					h := analyseHammock(g, fa.PDom, prof, brPC, sc)
					if h == nil {
						continue
					}
					tkSet, ntSet := cfg.BranchPaths(g, brPC, cfg.IPosDom(g, fa.PDom, brPC), prof.EdgeProb, sc.limits)
					for _, sd := range []struct {
						set *cfg.PathSet
						got []fetched
					}{{tkSet, h.tk}, {ntSet, h.nt}} {
						for i, id := range append(slices.Clone(h.cands), -1) {
							longest := 0
							var sum, total float64
							for j := range sd.set.Paths {
								p := &sd.set.Paths[j]
								n := instsBefore(g, p, id, sc.limits.CallWeight)
								longest = max(longest, n)
								sum += p.Prob * float64(n)
								total += p.Prob
							}
							expected := 0.0
							if total != 0 {
								expected = sum / total
							}
							if f := sd.got[i]; f.longest != longest || math.Float64bits(f.expected) != math.Float64bits(expected) {
								t.Fatalf("%s branch %d block %d: fetched %d / %v, per-candidate walk %d / %v",
									b.Name, brPC, id, f.longest, f.expected, longest, expected)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no hammock checked")
	}
}
