package cfg

import "sort"

// Loop is a natural loop: the body of a back edge latch->header where the
// header dominates the latch.
type Loop struct {
	// Header is the loop header block ID.
	Header int
	// Latches are the blocks with back edges to the header.
	Latches []int
	// Body is the set of block IDs in the loop, including header and latches,
	// sorted ascending.
	Body []int
	// ExitBranches are addresses of conditional branches inside the loop with
	// at least one successor outside the loop.
	ExitBranches []int
}

// Contains reports whether block id is in the loop body.
func (l *Loop) Contains(id int) bool {
	i := sort.SearchInts(l.Body, id)
	return i < len(l.Body) && l.Body[i] == id
}

// NumInsts returns the static instruction count of the loop body.
func (l *Loop) NumInsts(g *Graph) int {
	n := 0
	for _, id := range l.Body {
		n += g.Blocks[id].NumInsts()
	}
	return n
}

// NaturalLoops finds all natural loops of the graph, merging loops that
// share a header. Loops are returned in ascending header order.
func NaturalLoops(g *Graph, dom *DomTree) []*Loop {
	byHeader := make([]*Loop, len(g.Blocks))
	n := 0
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == g.ExitID {
				continue
			}
			if dom.Dominates(s, b.ID) {
				// Back edge b -> s.
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s}
					byHeader[s] = l
					n++
				}
				l.Latches = append(l.Latches, b.ID)
			}
		}
	}
	if n == 0 {
		return nil
	}
	loops := make([]*Loop, 0, n)
	in := make([]bool, len(g.Blocks)) // loopBody's membership marks, all false between calls
	for _, l := range byHeader {
		if l == nil {
			continue
		}
		l.Body = loopBody(g, l.Header, l.Latches, in)
		l.ExitBranches = loopExitBranches(g, l)
		loops = append(loops, l)
	}
	return loops
}

// loopBody computes the natural-loop body: header plus all nodes that reach
// a latch without passing through the header. The body list doubles as the
// worklist; in marks its members and is cleared again before returning.
func loopBody(g *Graph, header int, latches []int, in []bool) []int {
	body := []int{header}
	in[header] = true
	for _, l := range latches {
		if !in[l] {
			in[l] = true
			body = append(body, l)
		}
	}
	// The header's predecessors are not explored: paths into the loop
	// through the header do not belong to it.
	for i := 1; i < len(body); i++ {
		for _, p := range g.Preds(body[i]) {
			if !in[p] {
				in[p] = true
				body = append(body, p)
			}
		}
	}
	for _, id := range body {
		in[id] = false
	}
	sort.Ints(body)
	return body
}

func loopExitBranches(g *Graph, l *Loop) []int {
	var out []int
	for _, id := range l.Body {
		b := g.Blocks[id]
		if !g.Code[b.End-1].IsCondBranch() {
			continue
		}
		for _, s := range b.Succs {
			if s == g.ExitID || !l.Contains(s) {
				out = append(out, b.End-1)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// InnermostLoopWithExit returns the innermost (smallest-body) loop for which
// branchPC is an exit branch, or nil.
func InnermostLoopWithExit(loops []*Loop, branchPC int) *Loop {
	var best *Loop
	for _, l := range loops {
		for _, e := range l.ExitBranches {
			if e == branchPC && (best == nil || len(l.Body) < len(best.Body)) {
				best = l
			}
		}
	}
	return best
}
