package core

import "dmp/internal/cfg"

// side wraps one direction's enumerated path set with the per-CFM-candidate
// computations the selection algorithms and the cost model need.
type side struct {
	set *cfg.PathSet
	// cw is the call weight used in instruction accounting.
	cw int
}

// instsBefore returns the instruction count on path p before the first
// occurrence of block id; if id is not on the path it returns the whole
// path's instruction count (those instructions are fetched regardless,
// matching the paper's edge-based estimate in Eq. 11). Calls are weighted
// by cw.
func instsBefore(g *cfg.Graph, p *cfg.Path, id, cw int) int {
	n := 0
	for i, b := range p.Blocks {
		if b == id {
			return n
		}
		// The final block of a merged path is the stop block whose
		// instructions are not counted.
		if p.End == cfg.EndMerged && i == len(p.Blocks)-1 {
			break
		}
		n += g.BlockWeight(b, cw)
	}
	return p.Insts
}

// expInsts is method 3 (edge-weighted): the expected number of instructions
// fetched on this side before merging at block id (or until the path ends).
func (s side) expInsts(g *cfg.Graph, id int) float64 {
	var sum, total float64
	for i := range s.set.Paths {
		p := &s.set.Paths[i]
		sum += p.Prob * float64(instsBefore(g, p, id, s.cw))
		total += p.Prob
	}
	if total == 0 {
		return 0
	}
	return sum / total
}

// maxInsts is method 2 (longest path): the largest instruction count on any
// enumerated path before merging at block id.
func (s side) maxInsts(g *cfg.Graph, id int) int {
	m := 0
	for i := range s.set.Paths {
		p := &s.set.Paths[i]
		if n := instsBefore(g, p, id, s.cw); n > m {
			m = n
		}
	}
	return m
}

// allMergedAt reports whether every enumerated path on this side reaches the
// block (the Alg-exact condition: reconvergence within the bounds on every
// path).
func (s side) allMergedAt(id int) bool {
	if len(s.set.Paths) == 0 || !s.set.Complete {
		return false
	}
	for i := range s.set.Paths {
		p := &s.set.Paths[i]
		if p.End != cfg.EndMerged || p.Blocks[len(p.Blocks)-1] != id {
			if p.FirstIndexOf(id) < 0 {
				return false
			}
		}
	}
	return true
}

// firstReach returns, indexed by block ID, the probability that each block
// in cands is the first member of cands reached on this side (footnote 3's
// first-merge probability); every other entry is 0. nb is the graph's block
// count.
func (s side) firstReach(nb int, cands []int) []float64 {
	in := make([]bool, nb)
	for _, c := range cands {
		in[c] = true
	}
	out := make([]float64, nb)
	for i := range s.set.Paths {
		p := &s.set.Paths[i]
		for _, b := range p.Blocks {
			if in[b] {
				out[b] += p.Prob
				break
			}
		}
	}
	return out
}

// retProb returns the probability that this side leaves the function through
// a return instruction (for return-CFM detection).
func (s side) retProb(g *cfg.Graph) float64 {
	var sum float64
	for i := range s.set.Paths {
		p := &s.set.Paths[i]
		if p.End != cfg.EndExit || len(p.Blocks) == 0 {
			continue
		}
		if g.Blocks[p.Blocks[len(p.Blocks)-1]].HasReturn {
			sum += p.Prob
		}
	}
	return sum
}

// maxPathInsts returns the largest instruction count over all paths.
func (s side) maxPathInsts() int {
	m := 0
	for i := range s.set.Paths {
		if s.set.Paths[i].Insts > m {
			m = s.set.Paths[i].Insts
		}
	}
	return m
}

// isSingleBlockTo reports whether this side consists of exactly one path of
// at most one block that merges at id (the If-else baseline's "no
// intervening control flow" condition; an empty arm also qualifies).
func (s side) isSingleBlockTo(id int) bool {
	if len(s.set.Paths) != 1 {
		return false
	}
	p := &s.set.Paths[0]
	if p.End != cfg.EndMerged || p.Blocks[len(p.Blocks)-1] != id {
		return false
	}
	return len(p.Blocks) <= 2 && p.CondBrs == 0
}
