package verify

import (
	"sort"

	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// cfgPass checks that the CFG recovered from the binary is consistent with
// the binary itself: the blocks partition the function, every block is
// straight-line except for its terminator, the successor lists agree with
// the terminating instruction's semantics (including the documented
// [fallthrough, taken] order for conditional branches), predecessor lists
// mirror successor lists, and every direct control-flow target lands on a
// block boundary.
func (c *checker) cfgPass() {
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			c.report(PassCFG, fa.Fn.Entry, "cannot recover CFG of %s: %v", fa.Fn.Name, fa.Err)
			continue
		}
		c.checkGraph(fa)
	}
}

func (c *checker) checkGraph(fa *cfg.FuncAnalysis) {
	g, fn := fa.Graph, fa.Fn
	if len(g.Blocks) == 0 {
		c.report(PassCFG, fn.Entry, "%s: no basic blocks", fn.Name)
		return
	}
	// Partition: ordered, contiguous, covering exactly [Entry, End).
	if g.Blocks[0].Start != fn.Entry {
		c.report(PassCFG, fn.Entry, "%s: first block starts at %d, not the function entry", fn.Name, g.Blocks[0].Start)
	}
	for i, b := range g.Blocks {
		if b.ID != i {
			c.report(PassCFG, b.Start, "%s: block %d carries ID %d", fn.Name, i, b.ID)
		}
		if b.Start >= b.End {
			c.report(PassCFG, b.Start, "%s: empty block [%d,%d)", fn.Name, b.Start, b.End)
			continue
		}
		if i+1 < len(g.Blocks) && b.End != g.Blocks[i+1].Start {
			c.report(PassCFG, b.End, "%s: gap or overlap between blocks %d and %d", fn.Name, i, i+1)
		}
		// Straight-line body: control flow only at the last instruction
		// (calls are straight-line intra-procedurally).
		for pc := b.Start; pc < b.End-1; pc++ {
			in := c.p.Code[pc]
			if in.IsControl() && in.Op != isa.OpCall && in.Op != isa.OpCallR {
				c.report(PassCFG, pc, "%s: control-flow instruction %s in the middle of block %d", fn.Name, in.Op, b.ID)
			}
		}
	}
	if last := g.Blocks[len(g.Blocks)-1]; last.End != fn.End {
		c.report(PassCFG, last.End, "%s: last block ends at %d, not the function end %d", fn.Name, last.End, fn.End)
	}

	// Direct targets land on block boundaries inside the function.
	for _, b := range g.Blocks {
		term := c.p.Code[b.End-1]
		if !term.IsDirect() || term.Op == isa.OpCall {
			continue
		}
		tb := g.BlockAt(term.Target)
		if tb == nil || tb.Start != term.Target {
			c.report(PassCFG, b.End-1, "%s: %s targets %d, which is not a block boundary of the function", fn.Name, term.Op, term.Target)
		}
	}

	// Successor lists agree with the terminator semantics.
	for _, b := range g.Blocks {
		want := expectedSuccs(g, fn, b)
		if !equalInts(b.Succs, want) {
			c.report(PassCFG, b.End-1, "%s: block %d successors %v disagree with its terminator (want %v)", fn.Name, b.ID, b.Succs, want)
		}
	}

	// Predecessor lists mirror successor lists (as multisets).
	preds := make([][]int, g.NumNodes())
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b.ID)
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		got := append([]int(nil), g.Preds(id)...)
		want := preds[id]
		sort.Ints(got)
		sort.Ints(want)
		if !equalInts(got, want) {
			addr := fn.Entry
			if id < len(g.Blocks) {
				addr = g.Blocks[id].Start
			}
			c.report(PassCFG, addr, "%s: node %d predecessors %v do not mirror the successor lists (want %v)", fn.Name, id, got, want)
		}
	}
}

// expectedSuccs recomputes a block's successor list from its terminating
// instruction, mirroring the contract documented in cfg.Build.
func expectedSuccs(g *cfg.Graph, fn isa.Func, b *cfg.Block) []int {
	code := g.Code
	last := code[b.End-1]
	idAt := func(addr int) int {
		tb := g.BlockAt(addr)
		if tb == nil || tb.Start != addr {
			return g.ExitID // not a leader of this function: treated as exit
		}
		return tb.ID
	}
	fallthrough_ := func() int {
		if b.End < fn.End {
			return idAt(b.End)
		}
		return g.ExitID
	}
	switch {
	case last.IsCondBranch():
		return []int{fallthrough_(), idAt(last.Target)}
	case last.Op == isa.OpJmp:
		return []int{idAt(last.Target)}
	case last.Op == isa.OpRet, last.Op == isa.OpHalt, last.Op == isa.OpJr:
		return []int{g.ExitID}
	default:
		return []int{fallthrough_()}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// domPass cross-checks the Cooper-Harvey-Kennedy dominator and
// post-dominator trees against an independent iterative set-based fixpoint
// computation of the dominance relation.
func (c *checker) domPass() {
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			continue // reported by the cfg pass
		}
		g := fa.Graph
		c.checkDomTree(fa, PassDom, "dominator", fa.Dom, 0, g.Preds, g.Succs)
		c.checkDomTree(fa, PassDom, "post-dominator", fa.PDom, g.ExitID, g.Succs, g.Preds)
	}
}

// checkDomTree verifies one tree. preds/succs are given in the traversal
// direction: for post-dominators the roles are swapped.
func (c *checker) checkDomTree(fa *cfg.FuncAnalysis, pass, kind string, tree *cfg.DomTree, root int, preds, succs func(int) []int) {
	g := fa.Graph
	n := g.NumNodes()
	sets := naiveDomSets(n, root, preds, succs)
	got := newBitset(n)
	for v := 0; v < n; v++ {
		want := sets[v]
		treeDomSet(tree, v, got)
		if want == nil {
			// Unreachable in this direction: the tree must not claim an
			// immediate dominator.
			if v != root && tree.Idom[v] != -1 {
				c.report(pass, c.nodeAddr(fa, v), "%s: node %d is unreachable but has an immediate %s %d", fa.Fn.Name, v, kind, tree.Idom[v])
			}
			continue
		}
		if !want.equal(got) {
			c.report(pass, c.nodeAddr(fa, v), "%s: %s set of node %d disagrees with the independent fixpoint", fa.Fn.Name, kind, v)
		}
	}
}

func (c *checker) nodeAddr(fa *cfg.FuncAnalysis, id int) int {
	if id >= 0 && id < len(fa.Graph.Blocks) {
		return fa.Graph.Blocks[id].Start
	}
	return fa.Fn.Entry
}

// bitset is a simple fixed-size bitset over node IDs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// reset returns an empty set of n bits, reusing s's storage when it is
// large enough.
func (s bitset) reset(n int) bitset {
	w := (n + 63) / 64
	if cap(s) < w {
		return make(bitset, w)
	}
	s = s[:w]
	clear(s)
	return s
}

func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s bitset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}
func (s bitset) clear() {
	for i := range s {
		s[i] = 0
	}
}
func (s bitset) and(t bitset) {
	for i := range s {
		s[i] &= t[i]
	}
}
func (s bitset) equal(t bitset) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// naiveDomSets computes the dominance relation by the classic iterative
// set-intersection dataflow: Dom(root) = {root}; Dom(v) = {v} ∪ ∩ Dom(p).
// It returns nil for nodes unreachable from the root. It reads only the
// graph's edges, never the Cooper-Harvey-Kennedy trees it cross-checks. The
// node sets, the reachability set and the scratch set of each step are rows
// of one arena, and an updated set is copied into its row in place.
func naiveDomSets(n, root int, preds, succs func(int) []int) []bitset {
	w := (n + 63) / 64
	arena := make([]uint64, (n+2)*w)
	row := func(i int) bitset { return bitset(arena[i*w : (i+1)*w : (i+1)*w]) }
	reach, nw := row(n), row(n+1)
	stack := []int{root}
	reach.set(root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs(v) {
			if !reach.has(s) {
				reach.set(s)
				stack = append(stack, s)
			}
		}
	}
	sets := make([]bitset, n)
	for v := 0; v < n; v++ {
		if !reach.has(v) {
			continue
		}
		sets[v] = row(v)
		if v == root {
			sets[v].set(root)
		} else {
			sets[v].fill()
		}
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if sets[v] == nil || v == root {
				continue
			}
			nw.fill()
			any := false
			for _, p := range preds(v) {
				if sets[p] == nil {
					continue
				}
				nw.and(sets[p])
				any = true
			}
			if !any {
				nw.clear()
			}
			nw.set(v)
			if !nw.equal(sets[v]) {
				copy(sets[v], nw)
				changed = true
			}
		}
	}
	return sets
}

// treeDomSet materialises a node's dominator set into s by walking the Idom
// chain.
func treeDomSet(tree *cfg.DomTree, v int, s bitset) {
	s.clear()
	for v != -1 {
		s.set(v)
		v = tree.Idom[v]
	}
}

// loopsPass checks natural-loop sanity: the header dominates every latch,
// every latch really has a back edge to the header, the body is closed
// under predecessors (except at the header), and every recorded exit branch
// lies in the body with at least one direction leaving the loop.
func (c *checker) loopsPass() {
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			continue
		}
		g := fa.Graph
		for _, l := range fa.Loops {
			head := g.Blocks[l.Header]
			if !l.Contains(l.Header) {
				c.report(PassLoops, head.Start, "%s: loop header %d not in its own body", fa.Fn.Name, l.Header)
			}
			for _, latch := range l.Latches {
				if !fa.Dom.Dominates(l.Header, latch) {
					c.report(PassLoops, g.Blocks[latch].Start, "%s: loop header %d does not dominate latch %d", fa.Fn.Name, l.Header, latch)
				}
				if !l.Contains(latch) {
					c.report(PassLoops, g.Blocks[latch].Start, "%s: latch %d outside the loop body", fa.Fn.Name, latch)
				}
				hasBack := false
				for _, s := range g.Succs(latch) {
					if s == l.Header {
						hasBack = true
					}
				}
				if !hasBack {
					c.report(PassLoops, g.Blocks[latch].Start, "%s: latch %d has no back edge to header %d", fa.Fn.Name, latch, l.Header)
				}
			}
			for _, id := range l.Body {
				if id == l.Header {
					continue
				}
				for _, p := range g.Preds(id) {
					if !l.Contains(p) {
						c.report(PassLoops, g.Blocks[id].Start, "%s: loop body of header %d not closed: block %d has predecessor %d outside", fa.Fn.Name, l.Header, id, p)
					}
				}
			}
			for _, brPC := range l.ExitBranches {
				blk := g.BlockAt(brPC)
				if blk == nil || blk.End-1 != brPC || !c.p.Code[brPC].IsCondBranch() {
					c.report(PassLoops, brPC, "%s: recorded exit branch is not a block-terminating conditional branch", fa.Fn.Name)
					continue
				}
				if !l.Contains(blk.ID) {
					c.report(PassLoops, brPC, "%s: exit branch outside the loop body of header %d", fa.Fn.Name, l.Header)
				}
				leaves := false
				for _, s := range blk.Succs {
					if s == g.ExitID || !l.Contains(s) {
						leaves = true
					}
				}
				if !leaves {
					c.report(PassLoops, brPC, "%s: recorded exit branch never leaves the loop of header %d", fa.Fn.Name, l.Header)
				}
			}
		}
	}
}
