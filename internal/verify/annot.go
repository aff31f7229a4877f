package verify

import (
	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// annotPass checks diverge-branch annotation legality against the CFG and
// its analyses, per annotation kind:
//
//   - every kind: the local ISA rules (delegated to isa.Program.ValidateAnnot:
//     attached to a conditional branch, CFM count/order/uniqueness, merge
//     probabilities in [0,1]) plus containment in a function;
//   - diverge loops: no CFM list, LoopHead names a real natural-loop header,
//     the branch is a two-way exit of that loop, and LoopExitTaken matches
//     which successor leaves;
//   - hammocks: every CFM address is a block boundary of the branch's own
//     function and reachable from both directions of the branch; return CFMs
//     require a reachable return on both directions;
//   - short hammocks: exactly one address CFM whose shortest-path distance
//     from either successor respects the instruction bound.
func (c *checker) annotPass() {
	for _, pc := range sortedAnnotPCs(c.p) {
		c.checkAnnot(pc, c.p.Annots[pc])
	}
}

func (c *checker) checkAnnot(pc int, d *isa.DivergeInfo) {
	if err := c.p.ValidateAnnot(pc); err != nil {
		c.report(PassAnnot, pc, "%v", err)
		return
	}
	fa := cfg.Shared(c.p).FuncAt(pc)
	if fa == nil {
		c.report(PassAnnot, pc, "annotated branch lies outside every function")
		return
	}
	if fa.Err != nil {
		return // the cfg pass reports the analysis failure
	}
	g := fa.Graph
	blk := g.BlockAt(pc)
	if blk == nil || blk.End-1 != pc {
		c.report(PassAnnot, pc, "%s: annotated branch does not terminate a basic block", fa.Fn.Name)
		return
	}
	if d.Loop {
		c.checkLoopAnnot(fa, blk, pc, d)
		return
	}
	c.checkHammockAnnot(fa, blk, pc, d)
}

func (c *checker) checkLoopAnnot(fa *cfg.FuncAnalysis, blk *cfg.Block, pc int, d *isa.DivergeInfo) {
	g := fa.Graph
	if d.Short {
		c.report(PassAnnot, pc, "%s: diverge loop marked as short hammock", fa.Fn.Name)
	}
	if len(d.CFMs) > 0 {
		c.report(PassAnnot, pc, "%s: diverge loop carries %d CFM point(s); loop branches merge at the next iteration, not at a CFM", fa.Fn.Name, len(d.CFMs))
	}
	var loop *cfg.Loop
	for _, l := range fa.Loops {
		if g.Blocks[l.Header].Start == d.LoopHead && l.Contains(blk.ID) {
			if loop == nil || len(l.Body) < len(loop.Body) {
				loop = l
			}
		}
	}
	if loop == nil {
		c.report(PassAnnot, pc, "%s: LoopHead %d is not the header of a natural loop containing the branch", fa.Fn.Name, d.LoopHead)
		return
	}
	ntIn := blk.Succs[0] != g.ExitID && loop.Contains(blk.Succs[0])
	tkIn := blk.Succs[1] != g.ExitID && loop.Contains(blk.Succs[1])
	if ntIn == tkIn {
		c.report(PassAnnot, pc, "%s: branch is not a two-way exit of the loop at %d (fallthrough in: %v, taken in: %v)", fa.Fn.Name, d.LoopHead, ntIn, tkIn)
		return
	}
	// The exit-taken bit must point at the direction that leaves the loop:
	// taken exits exactly when the fallthrough stays in.
	if d.LoopExitTaken != ntIn {
		c.report(PassAnnot, pc, "%s: LoopExitTaken=%v contradicts the CFG (fallthrough stays in loop: %v)", fa.Fn.Name, d.LoopExitTaken, ntIn)
	}
}

func (c *checker) checkHammockAnnot(fa *cfg.FuncAnalysis, blk *cfg.Block, pc int, d *isa.DivergeInfo) {
	g := fa.Graph
	if d.Short && (len(d.CFMs) != 1 || d.CFMs[0].Kind != isa.CFMAddr) {
		c.report(PassAnnot, pc, "%s: short hammock must carry exactly one address CFM, has %d", fa.Fn.Name, len(d.CFMs))
	}
	if len(d.CFMs) == 0 {
		return // CFM-less dual-path annotation (baseline algorithms)
	}

	ntReach := c.reachable(g, blk.Succs[0], 0)
	tkReach := c.reachable(g, blk.Succs[1], 1)
	// A direction that cannot reach the function exit never merges; CFM
	// reachability is vacuous on that side (statically infinite loops).
	ntLive := ntReach == nil || ntReach.has(g.ExitID)
	tkLive := tkReach == nil || tkReach.has(g.ExitID)

	for i, m := range d.CFMs {
		switch m.Kind {
		case isa.CFMReturn:
			retOK := func(reach bitset, live bool) bool {
				if !live || reach == nil {
					return !live
				}
				for _, b := range g.Blocks {
					if b.HasReturn && reach.has(b.ID) {
						return true
					}
				}
				return false
			}
			if !retOK(ntReach, ntLive) || !retOK(tkReach, tkLive) {
				c.report(PassAnnot, pc, "%s: return CFM but a return instruction is not reachable from both directions", fa.Fn.Name)
			}
		case isa.CFMAddr:
			if m.Addr < fa.Fn.Entry || m.Addr >= fa.Fn.End {
				c.report(PassAnnot, pc, "%s: CFM %d at %d lies outside the branch's function [%d,%d)", fa.Fn.Name, i, m.Addr, fa.Fn.Entry, fa.Fn.End)
				continue
			}
			cb := g.BlockAt(m.Addr)
			if cb == nil || cb.Start != m.Addr {
				c.report(PassAnnot, pc, "%s: CFM %d at %d is not on a basic-block boundary", fa.Fn.Name, i, m.Addr)
				continue
			}
			if (ntLive && (ntReach == nil || !ntReach.has(cb.ID))) ||
				(tkLive && (tkReach == nil || !tkReach.has(cb.ID))) {
				c.report(PassAnnot, pc, "%s: CFM %d at %d is not reachable from both directions of the branch", fa.Fn.Name, i, m.Addr)
				continue
			}
			if d.Short {
				bound := c.opts.ShortMaxInsts
				if n := c.shortestDist(g, blk.Succs[0], cb.ID, c.opts.CallWeight); n > bound {
					c.report(PassAnnot, pc, "%s: short hammock fallthrough side is at least %d instructions to the CFM at %d (bound %d)", fa.Fn.Name, n, m.Addr, bound)
				}
				if n := c.shortestDist(g, blk.Succs[1], cb.ID, c.opts.CallWeight); n > bound {
					c.report(PassAnnot, pc, "%s: short hammock taken side is at least %d instructions to the CFM at %d (bound %d)", fa.Fn.Name, n, m.Addr, bound)
				}
			}
		}
	}
}

// reachable returns the set of nodes reachable from the given node
// (inclusive), or nil when the start is the virtual exit. The set is the
// checker's scratch slot, valid until that slot is used again.
func (c *checker) reachable(g *cfg.Graph, start, slot int) bitset {
	if start == g.ExitID {
		return nil
	}
	reach := c.reach[slot].reset(g.NumNodes())
	c.reach[slot] = reach
	reach.set(start)
	stack := append(c.stack[:0], start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == g.ExitID {
			continue
		}
		for _, s := range g.Succs(v) {
			if !reach.has(s) {
				reach.set(s)
				stack = append(stack, s)
			}
		}
	}
	c.stack = stack
	return reach
}

// shortestDist returns the minimum weighted instruction count fetched from
// the start block (inclusive) before entering the target block, matching the
// selection accounting: leaving block u costs BlockWeight(u, callWeight).
// A side whose every path to the target is longer than selection's
// enumerated maximum is by definition longer than this lower bound, so a
// bound violation here is a sound (never spurious) diagnostic. Returns a
// large value when the target is unreachable.
func (c *checker) shortestDist(g *cfg.Graph, start, target, callWeight int) int {
	const inf = int(^uint(0) >> 2)
	if start == g.ExitID {
		return inf
	}
	if start == target {
		return 0
	}
	n := g.NumNodes()
	if cap(c.dist) < n {
		c.dist, c.done = make([]int, n), make([]bool, n)
	}
	dist, done := c.dist[:n], c.done[:n]
	for i := range dist {
		dist[i] = inf
	}
	clear(done)
	dist[start] = 0
	for {
		u, best := -1, inf
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u == -1 || u == target {
			break
		}
		done[u] = true
		if u == g.ExitID {
			continue
		}
		w := dist[u] + g.BlockWeight(u, callWeight)
		for _, s := range g.Succs(u) {
			if w < dist[s] {
				dist[s] = w
			}
		}
	}
	return dist[target]
}
