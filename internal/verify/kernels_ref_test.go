package verify

// Reference versions of the dominance and def-before-use kernels, kept for
// the differential test in kernels_diff_test.go: the set-based dominance
// fixpoint allocating a fresh bitset per node per iteration, the allocating
// Idom-chain walk, and the def-before-use fixpoint re-walking every
// instruction on every iteration. The exported functions below exist only
// in the test binary.

import (
	"fmt"

	"dmp/internal/cfg"
	"dmp/internal/isa"
)

func refNaiveDomSets(n, root int, preds, succs func(int) []int) []bitset {
	reach := newBitset(n)
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
		sets[v] = newBitset(n)
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
			nw := newBitset(n)
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
				nw = newBitset(n)
			}
			nw.set(v)
			if !nw.equal(sets[v]) {
				sets[v] = nw
				changed = true
			}
		}
	}
	return sets
}

func refTreeDomSet(tree *cfg.DomTree, v, n int) bitset {
	s := newBitset(n)
	for v != -1 {
		s.set(v)
		v = tree.Idom[v]
	}
	return s
}

func (c *checker) refCheckDomTree(fa *cfg.FuncAnalysis, pass, kind string, tree *cfg.DomTree, root int, preds, succs func(int) []int) {
	g := fa.Graph
	n := g.NumNodes()
	sets := refNaiveDomSets(n, root, preds, succs)
	for v := 0; v < n; v++ {
		want := sets[v]
		got := refTreeDomSet(tree, v, n)
		if want == nil {
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

func (c *checker) refDomPass() {
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			continue
		}
		g := fa.Graph
		c.refCheckDomTree(fa, PassDom, "dominator", fa.Dom, 0, g.Preds, g.Succs)
		c.refCheckDomTree(fa, PassDom, "post-dominator", fa.PDom, g.ExitID, g.Succs, g.Preds)
	}
}

// refDefUse runs the per-instruction def-before-use analysis and returns
// the fixpoint in-sets; with report set it also reports every undefined
// read.
func (c *checker) refDefUse(fa *cfg.FuncAnalysis, report bool) []uint64 {
	g := fa.Graph
	n := len(g.Blocks)
	in := make([]uint64, n)
	out := make([]uint64, n)
	for i := range in {
		in[i] = ^uint64(0)
		out[i] = ^uint64(0)
	}
	in[0] = entryDefined

	transfer := func(id int, defined uint64, report bool) uint64 {
		b := g.Blocks[id]
		var readBuf [4]int
		for pc := b.Start; pc < b.End; pc++ {
			inst := c.p.Code[pc]
			for _, r := range inst.Reads(readBuf[:0]) {
				if defined&(1<<r) == 0 && report {
					c.report(PassDataflow, pc, "%s: r%d may be read before definition in %s",
						inst, r, fa.Fn.Name)
				}
			}
			if inst.Op == isa.OpCall || inst.Op == isa.OpCallR {
				defined &^= callClobberMask
				defined |= (1 << isa.RegRet) | (1 << isa.RegLR)
				continue
			}
			if w := inst.Writes(); w >= 0 {
				defined |= 1 << w
			}
		}
		return defined
	}

	for changed := true; changed; {
		changed = false
		for id := 0; id < n; id++ {
			newIn := ^uint64(0)
			for _, p := range g.Preds(id) {
				newIn &= out[p]
			}
			if id == 0 {
				newIn &= entryDefined
			} else if len(g.Preds(id)) == 0 {
				newIn = in[id]
			}
			newOut := transfer(id, newIn, false)
			if newIn != in[id] || newOut != out[id] {
				in[id], out[id] = newIn, newOut
				changed = true
			}
		}
	}
	if report {
		for id := 0; id < n; id++ {
			transfer(id, in[id], true)
		}
	}
	return in
}

// RunReference is Run with every pass, the dataflow and dom passes on the
// reference kernels.
func RunReference(p *isa.Program, opts Options) []Diagnostic {
	c := &checker{p: p, opts: opts.withDefaults()}
	c.binaryPass()
	if len(c.diags) > 0 {
		return c.diags
	}
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err == nil {
			c.refDefUse(fa, true)
		}
	}
	if c.encodeCodePass() {
		c.encodeAnnotsPass()
	}
	c.cfgPass()
	c.refDomPass()
	c.loopsPass()
	c.annotPass()
	return c.diags
}

// KernelMismatches runs the dominance and def-before-use kernels and their
// references on every function of p whose CFG can be built, and describes
// each disagreement.
func KernelMismatches(p *isa.Program) []string {
	c := &checker{p: p, opts: Options{}.withDefaults()}
	var out []string
	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			continue
		}
		g := fa.Graph
		n := g.NumNodes()
		dirs := []struct {
			kind         string
			tree         *cfg.DomTree
			root         int
			preds, succs func(int) []int
		}{
			{"dominator", fa.Dom, 0, g.Preds, g.Succs},
			{"post-dominator", fa.PDom, g.ExitID, g.Succs, g.Preds},
		}
		for _, d := range dirs {
			sets := naiveDomSets(n, d.root, d.preds, d.succs)
			want := refNaiveDomSets(n, d.root, d.preds, d.succs)
			got := newBitset(n)
			for v := 0; v < n; v++ {
				if (sets[v] == nil) != (want[v] == nil) || (sets[v] != nil && !sets[v].equal(want[v])) {
					out = append(out, fmt.Sprintf("%s: %s set of node %d = %v, reference %v", fa.Fn.Name, d.kind, v, sets[v], want[v]))
				}
				treeDomSet(d.tree, v, got)
				if ref := refTreeDomSet(d.tree, v, n); !got.equal(ref) {
					out = append(out, fmt.Sprintf("%s: %s tree set of node %d = %v, reference %v", fa.Fn.Name, d.kind, v, got, ref))
				}
			}
		}
		in, want := c.definedIn(g), c.refDefUse(fa, false)
		for id := range in {
			if in[id] != want[id] {
				out = append(out, fmt.Sprintf("%s: registers defined on entry to block %d = %#x, reference %#x", fa.Fn.Name, id, in[id], want[id]))
			}
		}
	}
	return out
}
