package cfg_test

// Differential test of the dense CFG kernels against the map- and
// scan-based versions they replaced, kept here as references: Build with a
// leader set and an ID map, BlockWeight re-walking the block, natural loops
// with map-based header and body sets, and path enumeration testing "first
// visit on this prefix" by scanning the prefix, with Reach as a map. Every
// function of the 17 corpus programs (profiled on both input sets) and of a
// 200-program generated corpus must give the same graph, block weights,
// block lookups, loops, path sets (probabilities compared bit for bit) and
// CFM candidate order.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/cfg"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/profile"
)

// refBlock and refGraph are the reference Build's output.
type refBlock struct {
	Start, End             int
	Succs, Preds           []int
	HasIndirect, HasReturn bool
}

type refGraph struct {
	blocks    []*refBlock
	exitID    int
	exitPreds []int
	starts    []int
}

// refBuild is the map-based CFG recovery.
func refBuild(p *isa.Program, fn isa.Func) (*refGraph, error) {
	if fn.Entry < 0 || fn.End > len(p.Code) || fn.Entry >= fn.End {
		return nil, fmt.Errorf("cfg: function %q extent [%d,%d) invalid", fn.Name, fn.Entry, fn.End)
	}
	leader := map[int]bool{fn.Entry: true}
	for pc := fn.Entry; pc < fn.End; pc++ {
		in := p.Code[pc]
		if !in.IsControl() || in.Op == isa.OpCall || in.Op == isa.OpCallR {
			continue
		}
		if pc+1 < fn.End {
			leader[pc+1] = true
		}
		if in.IsDirect() && in.Op != isa.OpCall {
			if in.Target < fn.Entry || in.Target >= fn.End {
				return nil, fmt.Errorf("cfg: %q: branch at %d targets %d outside function", fn.Name, pc, in.Target)
			}
			leader[in.Target] = true
		}
	}
	starts := make([]int, 0, len(leader))
	for pc := range leader {
		starts = append(starts, pc)
	}
	sort.Ints(starts)

	g := &refGraph{starts: starts}
	idOf := make(map[int]int, len(starts))
	for i, s := range starts {
		end := fn.End
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		g.blocks = append(g.blocks, &refBlock{Start: s, End: end})
		idOf[s] = i
	}
	g.exitID = len(g.blocks)
	exitEdge := func(id int) {
		g.blocks[id].Succs = append(g.blocks[id].Succs, g.exitID)
		g.exitPreds = append(g.exitPreds, id)
	}
	for bid, b := range g.blocks {
		last := p.Code[b.End-1]
		addSucc := func(target int) {
			id, ok := idOf[target]
			if !ok {
				exitEdge(bid)
				return
			}
			b.Succs = append(b.Succs, id)
			g.blocks[id].Preds = append(g.blocks[id].Preds, bid)
		}
		switch {
		case last.IsCondBranch():
			if b.End < fn.End {
				addSucc(b.End)
			} else {
				exitEdge(bid)
			}
			addSucc(last.Target)
		case last.Op == isa.OpJmp:
			addSucc(last.Target)
		case last.Op == isa.OpRet:
			b.HasReturn = true
			exitEdge(bid)
		case last.Op == isa.OpHalt:
			exitEdge(bid)
		case last.Op == isa.OpJr:
			b.HasIndirect = true
			exitEdge(bid)
		default:
			if b.End < fn.End {
				addSucc(b.End)
			} else {
				exitEdge(bid)
			}
		}
	}
	return g, nil
}

// refBlockAt is the binary-search block lookup.
func (r *refGraph) blockAt(fn isa.Func, pc int) int {
	if pc < fn.Entry || pc >= fn.End {
		return -1
	}
	return sort.SearchInts(r.starts, pc+1) - 1
}

// refBlockWeight re-walks the block on every call.
func refBlockWeight(g *cfg.Graph, id, callWeight int) int {
	if id < 0 || id >= len(g.Blocks) {
		return 0
	}
	b := g.Blocks[id]
	n := 0
	for pc := b.Start; pc < b.End; pc++ {
		if op := g.Code[pc].Op; op == isa.OpCall || op == isa.OpCallR {
			n += callWeight
		} else {
			n++
		}
	}
	return n
}

// refNaturalLoops collects loops in a header map and bodies in a set map.
func refNaturalLoops(g *cfg.Graph, dom *cfg.DomTree) []*cfg.Loop {
	byHeader := map[int]*cfg.Loop{}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s != g.ExitID && dom.Dominates(s, b.ID) {
				l := byHeader[s]
				if l == nil {
					l = &cfg.Loop{Header: s}
					byHeader[s] = l
				}
				l.Latches = append(l.Latches, b.ID)
			}
		}
	}
	var loops []*cfg.Loop
	for _, l := range byHeader {
		in := map[int]bool{l.Header: true}
		var stack []int
		for _, lt := range l.Latches {
			if !in[lt] {
				in[lt] = true
				stack = append(stack, lt)
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Preds(v) {
				if !in[p] {
					in[p] = true
					stack = append(stack, p)
				}
			}
		}
		for id := range in {
			l.Body = append(l.Body, id)
		}
		sort.Ints(l.Body)
		for _, id := range l.Body {
			b := g.Blocks[id]
			if !g.Code[b.End-1].IsCondBranch() {
				continue
			}
			for _, s := range b.Succs {
				if s == g.ExitID || !l.Contains(s) {
					l.ExitBranches = append(l.ExitBranches, b.End-1)
					break
				}
			}
		}
		sort.Ints(l.ExitBranches)
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header < loops[j].Header })
	return loops
}

// refPathSet is the reference enumeration's output, Reach as a map.
type refPathSet struct {
	Paths    []cfg.Path
	Reach    map[int]float64
	Complete bool
}

func refWithDefaults(l cfg.PathLimits) cfg.PathLimits {
	if l.MaxPaths == 0 {
		l.MaxPaths = cfg.DefaultMaxPaths
	}
	if l.ProbFloor == 0 {
		l.ProbFloor = cfg.DefaultProbFloor
	}
	if l.CallWeight == 0 {
		l.CallWeight = cfg.DefaultCallWeight
	} else if l.CallWeight < 0 {
		l.CallWeight = 1
	}
	return l
}

func firstOnPath(blocks []int, id int) bool {
	for _, b := range blocks {
		if b == id {
			return false
		}
	}
	return true
}

// refEnumeratePaths scans the prefix for first visits and allocates each
// path's block list.
func refEnumeratePaths(g *cfg.Graph, startBlock, stopBlock int, prob cfg.EdgeProb, limits cfg.PathLimits) *refPathSet {
	limits = refWithDefaults(limits)
	set := &refPathSet{Reach: map[int]float64{}, Complete: true}
	if startBlock == g.ExitID {
		return set
	}
	type frame struct {
		block   int
		prob    float64
		insts   int
		cbrs    int
		nextSuc int
	}
	stack := []frame{}
	var blocks []int
	record := func(end cfg.PathEnd, prob float64, insts, cbrs int, withLast bool) {
		if len(set.Paths) >= limits.MaxPaths {
			set.Complete = false
			return
		}
		n := len(blocks)
		if withLast {
			n++
		}
		p := cfg.Path{Blocks: make([]int, n), Prob: prob, Insts: insts, CondBrs: cbrs, End: end}
		copy(p.Blocks, blocks)
		if withLast {
			p.Blocks[n-1] = stack[len(stack)-1].block
		}
		set.Paths = append(set.Paths, p)
	}
	push := func(id int, prob float64, insts, cbrs int) bool {
		stack = append(stack, frame{block: id, prob: prob, insts: insts, cbrs: cbrs})
		if firstOnPath(blocks, id) {
			set.Reach[id] += prob
		}
		if id == stopBlock {
			record(cfg.EndMerged, prob, insts, cbrs, true)
			stack = stack[:len(stack)-1]
			return false
		}
		b := g.Blocks[id]
		insts += refBlockWeight(g, id, limits.CallWeight)
		if g.Code[b.End-1].IsCondBranch() {
			cbrs++
		}
		top := &stack[len(stack)-1]
		top.insts = insts
		top.cbrs = cbrs
		if insts > limits.MaxInsts || cbrs > limits.MaxCondBrs {
			record(cfg.EndTruncated, prob, insts, cbrs, true)
			stack = stack[:len(stack)-1]
			return false
		}
		blocks = append(blocks, id)
		return true
	}
	if !push(startBlock, 1, 0, 0) {
		return set
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := g.Succs(top.block)
		advanced := false
		for top.nextSuc < len(succs) {
			s := succs[top.nextSuc]
			top.nextSuc++
			if slices.Index(succs, s) != top.nextSuc-1 {
				continue // a parallel edge, followed at its first index
			}
			p := prob(g, top.block, s) * top.prob
			if p < top.prob*limits.MinExecProb || p < limits.ProbFloor {
				continue
			}
			if s == g.ExitID {
				record(cfg.EndExit, p, top.insts, top.cbrs, false)
				continue
			}
			if push(s, p, top.insts, top.cbrs) {
				advanced = true
				break
			}
			top = &stack[len(stack)-1] // push may have moved the stack
		}
		if advanced {
			continue
		}
		if top.nextSuc >= len(succs) {
			if len(succs) == 0 {
				record(cfg.EndExit, top.prob, top.insts, top.cbrs, false)
			}
			stack = stack[:len(stack)-1]
			blocks = blocks[:len(blocks)-1]
		}
	}
	return set
}

// refCommonBlocks iterates the taken side's Reach map.
func refCommonBlocks(taken, notTaken *refPathSet) []int {
	var out []int
	for id := range taken.Reach {
		if notTaken.Reach[id] > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi := taken.Reach[out[i]] * notTaken.Reach[out[i]]
		pj := taken.Reach[out[j]] * notTaken.Reach[out[j]]
		if pi != pj {
			return pi > pj
		}
		return out[i] < out[j]
	})
	return out
}

// diffProgram is one program with the edge profiles to enumerate under.
type diffProgram struct {
	name  string
	prog  *isa.Program
	profs []*profile.Profile
}

func diffCorpus(t *testing.T) []diffProgram {
	t.Helper()
	var out []diffProgram
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		dp := diffProgram{name: b.Name, prog: prog}
		for _, set := range []bench.InputSet{bench.RunInput, bench.TrainInput} {
			prof, err := profile.Collect(prog, b.Input(set, 1), profile.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, set, err)
			}
			dp.profs = append(dp.profs, prof)
		}
		out = append(out, dp)
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
		prof, err := profile.Collect(prog, g.TrainInput, profile.Options{MaxInsts: 50_000_000})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		out = append(out, diffProgram{name: g.Name, prog: prog, profs: []*profile.Profile{prof}})
	}
	return out
}

func uniform(g *cfg.Graph, from, to int) float64 {
	n := len(g.Succs(from))
	if n == 0 {
		return 0
	}
	return 1 / float64(n)
}

// diffCase is one enumeration setting: bounds and whether the edge
// probabilities come from the profiles (else uniform).
type diffCase struct {
	lim      cfg.PathLimits
	profiled bool
}

// diffCases are the settings the selection algorithms enumerate under (the
// heuristic and cost-model bounds on profiles, the If-else baseline's
// uniform single-block probe), plus a tight path cap so that truncated
// (incomplete) sets are compared too.
func diffCases() []diffCase {
	heur, cost := core.HeuristicParams(), core.CostParams(core.EdgeWeighted)
	return []diffCase{
		{cfg.PathLimits{MaxInsts: heur.MaxInstr, MaxCondBrs: heur.MaxCbr, MinExecProb: heur.MinExecProb}, true},
		{cfg.PathLimits{MaxInsts: cost.MaxInstr, MaxCondBrs: cost.MaxCbr, MinExecProb: cost.MinExecProb}, true},
		{cfg.PathLimits{MaxInsts: 1 << 20, MaxCondBrs: 0, MinExecProb: 0, CallWeight: -1}, false},
		{cfg.PathLimits{MaxInsts: heur.MaxInstr, MaxCondBrs: heur.MaxCbr, MinExecProb: heur.MinExecProb, MaxPaths: 2, CallWeight: 3}, true},
	}
}

func TestKernelsMatchReference(t *testing.T) {
	progs := diffCorpus(t)
	funcs, sets, incomplete := 0, 0, 0
	for _, dp := range progs {
		for _, fn := range dp.prog.Funcs {
			funcs++
			where := dp.name + "/" + fn.Name
			g, err := cfg.Build(dp.prog, fn)
			ref, refErr := refBuild(dp.prog, fn)
			if err != nil || refErr != nil {
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: Build error %v, reference %v", where, err, refErr)
				}
				continue
			}
			diffGraph(t, where, g, ref)
			dom := cfg.Dominators(g)
			if got, want := cfg.NaturalLoops(g, dom), refNaturalLoops(g, dom); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: NaturalLoops %+v, reference %+v", where, got, want)
			}
			pdom := cfg.PostDominators(g)
			for _, br := range g.CondBranches() {
				b := g.BlockAt(br)
				stop := cfg.IPosDom(g, pdom, br)
				for ci, c := range diffCases() {
					probs := []cfg.EdgeProb{uniform}
					if c.profiled {
						probs = probs[:0]
						for _, prof := range dp.profs {
							probs = append(probs, prof.EdgeProb)
						}
					}
					for pi, prob := range probs {
						at := fmt.Sprintf("%s: branch %d case %d prob %d", where, br, ci, pi)
						tk, nt := cfg.BranchPaths(g, br, stop, prob, c.lim)
						refTk := refEnumeratePaths(g, b.Succs[1], stop, prob, c.lim)
						refNt := refEnumeratePaths(g, b.Succs[0], stop, prob, c.lim)
						diffPathSet(t, at+" taken", g, tk, refTk)
						diffPathSet(t, at+" not-taken", g, nt, refNt)
						if got, want := cfg.CommonBlocks(tk, nt), refCommonBlocks(refTk, refNt); !slices.Equal(got, want) {
							t.Fatalf("%s: CommonBlocks %v, reference %v", at, got, want)
						}
						sets += 2
						if !tk.Complete {
							incomplete++
						}
					}
				}
			}
		}
	}
	t.Logf("%d programs, %d functions, %d path sets (%d taken sides truncated)", len(progs), funcs, sets, incomplete)
	if incomplete == 0 {
		t.Error("no truncated path set was compared")
	}
}

// TestPathSetsHoldNoDuplicates checks two invariants of every profiled path
// set the selection algorithms enumerate: no path is recorded twice, and
// the paths' probabilities, disjoint events, sum to at most 1. A DFS that
// loses its place in a frame re-enumerates a subtree and breaks both, and
// so does one that follows both edges of a branch whose target is its
// fallthrough, each with the block pair's whole probability. (The profile
// package's TestEdgeProbParallelEdges checks that such a pair's path set
// sums to 1, which no bound from above can see.)
func TestPathSetsHoldNoDuplicates(t *testing.T) {
	sets := 0
	for _, dp := range diffCorpus(t) {
		for _, fn := range dp.prog.Funcs {
			g, err := cfg.Build(dp.prog, fn)
			if err != nil {
				continue
			}
			pdom := cfg.PostDominators(g)
			for _, br := range g.CondBranches() {
				stop := cfg.IPosDom(g, pdom, br)
				for ci, c := range diffCases() {
					if !c.profiled {
						continue
					}
					for pi, prof := range dp.profs {
						tk, nt := cfg.BranchPaths(g, br, stop, prof.EdgeProb, c.lim)
						for side, set := range map[string]*cfg.PathSet{"taken": tk, "not-taken": nt} {
							at := fmt.Sprintf("%s/%s: branch %d case %d prob %d %s", dp.name, fn.Name, br, ci, pi, side)
							seen := map[string]int{}
							sum := 0.0
							var key []byte
							for _, p := range set.Paths {
								key = append(key[:0], byte(p.End))
								for _, b := range p.Blocks {
									key = binary.AppendUvarint(key, uint64(b))
								}
								k := string(key)
								if seen[k]++; seen[k] > 1 {
									t.Fatalf("%s: path %v recorded %d times", at, p.Blocks, seen[k])
								}
								sum += p.Prob
							}
							if sum > 1+1e-9 {
								t.Fatalf("%s: %d path probabilities sum to %v", at, len(set.Paths), sum)
							}
							sets++
						}
					}
				}
			}
		}
	}
	t.Logf("%d path sets", sets)
}

func diffGraph(t *testing.T, where string, g *cfg.Graph, ref *refGraph) {
	t.Helper()
	if len(g.Blocks) != len(ref.blocks) || g.ExitID != ref.exitID {
		t.Fatalf("%s: %d blocks, exit %d; reference %d, %d", where, len(g.Blocks), g.ExitID, len(ref.blocks), ref.exitID)
	}
	for i, b := range g.Blocks {
		r := ref.blocks[i]
		got := refBlock{b.Start, b.End, b.Succs, b.Preds, b.HasIndirect, b.HasReturn}
		if b.ID != i || !reflect.DeepEqual(got, *r) {
			t.Fatalf("%s: block %d (ID %d) = %+v, reference %+v", where, i, b.ID, got, *r)
		}
		for _, cw := range []int{1, 3, cfg.DefaultCallWeight} {
			if w, rw := g.BlockWeight(i, cw), refBlockWeight(g, i, cw); w != rw {
				t.Fatalf("%s: BlockWeight(%d, %d) = %d, reference %d", where, i, cw, w, rw)
			}
		}
	}
	for _, id := range []int{-1, g.ExitID} {
		if w := g.BlockWeight(id, cfg.DefaultCallWeight); w != 0 {
			t.Fatalf("%s: BlockWeight(%d) = %d, want 0", where, id, w)
		}
	}
	if !reflect.DeepEqual(g.Preds(g.ExitID), ref.exitPreds) {
		t.Fatalf("%s: exit preds %v, reference %v", where, g.Preds(g.ExitID), ref.exitPreds)
	}
	for pc := g.Fn.Entry - 1; pc <= g.Fn.End; pc++ {
		id := -1
		if b := g.BlockAt(pc); b != nil {
			id = b.ID
		}
		if want := ref.blockAt(g.Fn, pc); id != want {
			t.Fatalf("%s: BlockAt(%d) = %d, reference %d", where, pc, id, want)
		}
	}
}

func diffPathSet(t *testing.T, at string, g *cfg.Graph, got *cfg.PathSet, want *refPathSet) {
	t.Helper()
	if got.Complete != want.Complete || len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: %d paths complete=%v, reference %d complete=%v", at, len(got.Paths), got.Complete, len(want.Paths), want.Complete)
	}
	for i := range got.Paths {
		p, w := got.Paths[i], want.Paths[i]
		if !slices.Equal(p.Blocks, w.Blocks) || math.Float64bits(p.Prob) != math.Float64bits(w.Prob) ||
			p.Insts != w.Insts || p.CondBrs != w.CondBrs || p.End != w.End {
			t.Fatalf("%s: path %d = %+v, reference %+v", at, i, p, w)
		}
	}
	if len(got.Reach) != len(g.Blocks) {
		t.Fatalf("%s: Reach has %d entries for %d blocks", at, len(got.Reach), len(g.Blocks))
	}
	for id := range want.Reach {
		if id < 0 || id >= len(got.Reach) {
			t.Fatalf("%s: reference reaches block %d outside the graph", at, id)
		}
	}
	for id := -1; id <= len(got.Reach); id++ {
		r := got.MergeProb(id)
		if math.Float64bits(r) != math.Float64bits(want.Reach[id]) {
			t.Fatalf("%s: MergeProb(%d) = %v, reference %v", at, id, r, want.Reach[id])
		}
	}
}

// TestBuildErrorsMatchReference compares the error paths, which no corpus
// function takes.
func TestBuildErrorsMatchReference(t *testing.T) {
	b := isa.NewBuilder()
	b.Func("main")
	b.In(1)
	b.Beqz(1, "out")
	b.Halt()
	b.Func("other")
	b.Label("out")
	b.Ret()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	fns := []isa.Func{
		*p.FuncByName("main"),
		{Name: "empty", Entry: 1, End: 1},
		{Name: "negative", Entry: -1, End: 2},
		{Name: "past-end", Entry: 0, End: len(p.Code) + 1},
	}
	for _, fn := range fns {
		_, err := cfg.Build(p, fn)
		_, refErr := refBuild(p, fn)
		if err == nil || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: Build error %v, reference %v", fn.Name, err, refErr)
		}
	}
}
