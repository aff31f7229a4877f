package core

import (
	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// side wraps one direction's enumerated path set with the per-CFM-candidate
// computations the selection algorithms and the cost model need.
type side struct {
	set *cfg.PathSet
	// cw is the call weight used in instruction accounting.
	cw int
}

// fetched estimates the instructions a side fetches before merging at one
// block (Eq. 11; a path that misses the block is fetched whole), by the
// longest path (method 2) and by the path-probability-weighted average
// (method 3).
type fetched struct {
	longest  int
	expected float64
}

// fetchedBefore returns the estimates for merging at each candidate and then at
// no block (a return CFM), walking each path once. The stop block ending a
// merged path is not counted but can be a candidate. Sums run in path order.
func (s side) fetchedBefore(g *cfg.Graph, cands []int) []fetched {
	n := len(cands)
	out := make([]fetched, n+1)
	var buf [isa.MaxCFM]int
	before := append(buf[:0], cands...) // reused per path
	var total float64
	for i := range s.set.Paths {
		p := &s.set.Paths[i]
		for j := range before {
			before[j] = -1
		}
		insts, left, last := 0, n, len(p.Blocks)-1
		for k, b := range p.Blocks {
			for j, c := range cands {
				if c == b && before[j] < 0 {
					before[j] = insts
					left--
				}
			}
			if left == 0 || p.End == cfg.EndMerged && k == last {
				break
			}
			insts += g.BlockWeight(b, s.cw)
		}
		for j := range out {
			m := p.Insts
			if j < n && before[j] >= 0 {
				m = before[j]
			}
			out[j].longest = max(out[j].longest, m)
			out[j].expected += p.Prob * float64(m)
		}
		total += p.Prob
	}
	for j := range out {
		if total != 0 { // else every sum is 0
			out[j].expected /= total
		}
	}
	return out
}

// allMergedAt reports whether every enumerated path on this side reaches the
// block (the Alg-exact condition: reconvergence within the bounds on every
// path).
func (s side) allMergedAt(id int) bool {
	if len(s.set.Paths) == 0 || !s.set.Complete {
		return false
	}
	for i := range s.set.Paths {
		if s.set.Paths[i].FirstIndexOf(id) < 0 {
			return false
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
