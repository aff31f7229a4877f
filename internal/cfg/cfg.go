// Package cfg recovers control-flow graphs from DISA binaries and provides
// the graph analyses the diverge-branch selection compiler needs: dominators
// and post-dominators (Cooper-Harvey-Kennedy), immediate post-dominators
// (the exact CFM points of Section 3.2), natural-loop detection, and
// frequency-bounded path enumeration (Alg-freq, Section 3.3).
//
// Graphs are intra-procedural. Direct calls are treated as straight-line
// instructions (control returns to the following instruction), matching the
// paper's binary analysis toolset. Register-indirect jumps have statically
// unknown successors; their blocks are conservatively wired to the virtual
// exit so that no hammock analysis ever claims a merge across them
// (Section 6.1's limitation).
package cfg

import (
	"fmt"

	"dmp/internal/isa"
)

// Block is a basic block: a maximal single-entry straight-line run of
// instructions [Start, End).
type Block struct {
	ID    int
	Start int
	End   int
	// Succs and Preds hold block IDs. ExitID marks an edge to the virtual
	// exit (function return, halt, or unknown indirect target).
	Succs []int
	Preds []int
	// HasIndirect marks a block terminated by a register-indirect jump.
	HasIndirect bool
	// HasReturn marks a block terminated by a return instruction.
	HasReturn bool
	// calls counts the block's call instructions (BlockWeight's surcharge).
	calls int32
}

// NumInsts returns the instruction count of the block.
func (b *Block) NumInsts() int { return b.End - b.Start }

// Graph is the control-flow graph of one function, plus a virtual exit node.
type Graph struct {
	// Code is the code array of the binary the function belongs to. A graph
	// depends on nothing else: every annotation variant of the binary
	// (isa.Program.WithAnnots) shares it.
	Code []isa.Inst
	Fn   isa.Func
	// Blocks are ordered by start address. The virtual exit is not in this
	// slice; it has ID ExitID == len(Blocks).
	Blocks []*Block
	// ExitID is the virtual exit node's ID.
	ExitID int
	// exitPreds lists blocks with an edge to the virtual exit.
	exitPreds []int
	// blockOf[pc-Fn.Entry] is the ID of the block holding pc.
	blockOf []int32
}

// Build recovers the CFG of function fn in program p.
//
// Every table is dense over the function's extent: blockOf first marks the
// leaders and is then overwritten with each address's block ID, the blocks
// share one backing array, and the successor and predecessor lists are
// carved from one array each (predecessors by a counting pass, so each list
// keeps the block order in which its edges are found).
func Build(p *isa.Program, fn isa.Func) (*Graph, error) {
	if fn.Entry < 0 || fn.End > len(p.Code) || fn.Entry >= fn.End {
		return nil, fmt.Errorf("cfg: function %q extent [%d,%d) invalid", fn.Name, fn.Entry, fn.End)
	}
	code := p.Code[fn.Entry:fn.End]
	// Pass 1: mark leaders (blockOf[off] = 1) and count them.
	blockOf := make([]int32, len(code))
	blockOf[0] = 1
	nb := 1
	for off := range code {
		in := &code[off]
		if !in.IsControl() || in.Op == isa.OpCall || in.Op == isa.OpCallR {
			continue // calls are straight-line intra-procedurally
		}
		if off+1 < len(code) && blockOf[off+1] == 0 {
			blockOf[off+1] = 1
			nb++
		}
		if in.IsDirect() {
			if in.Target < fn.Entry || in.Target >= fn.End {
				return nil, fmt.Errorf("cfg: %q: branch at %d targets %d outside function", fn.Name, fn.Entry+off, in.Target)
			}
			if t := in.Target - fn.Entry; blockOf[t] == 0 {
				blockOf[t] = 1
				nb++
			}
		}
	}

	// Pass 2: cut the blocks, number every address and count calls.
	g := &Graph{Code: p.Code, Fn: fn, ExitID: nb, blockOf: blockOf}
	blocks := make([]Block, nb)
	g.Blocks = make([]*Block, nb)
	id := -1
	for off := range code {
		if blockOf[off] != 0 {
			id++
			b := &blocks[id]
			b.ID, b.Start = id, fn.Entry+off
			if id > 0 {
				blocks[id-1].End = b.Start
			}
			g.Blocks[id] = b
		}
		blockOf[off] = int32(id)
		if op := code[off].Op; op == isa.OpCall || op == isa.OpCallR {
			blocks[id].calls++
		}
	}
	blocks[nb-1].End = fn.End

	// Pass 3: wire successors. A target that is not a leader of this
	// function is treated as an exit edge.
	idAt := func(target int) int {
		if target < fn.Entry || target >= fn.End {
			return g.ExitID
		}
		if id := int(blockOf[target-fn.Entry]); blocks[id].Start == target {
			return id
		}
		return g.ExitID
	}
	nsucc := nb
	for i := range blocks {
		if code[blocks[i].End-1-fn.Entry].IsCondBranch() {
			nsucc++
		}
	}
	succBuf := make([]int, 0, nsucc)
	predEnd := make([]int, nb+1) // predecessor count, then end offset, per node
	for i := range blocks {
		b := &blocks[i]
		last := &code[b.End-1-fn.Entry]
		next := g.ExitID
		if b.End < fn.End {
			next = idAt(b.End)
		}
		lo := len(succBuf)
		switch {
		case last.IsCondBranch():
			// Not-taken (fall-through) first, then taken: successor order is
			// [fallthrough, taken] and consumers rely on it.
			succBuf = append(succBuf, next, idAt(last.Target))
		case last.Op == isa.OpJmp:
			succBuf = append(succBuf, idAt(last.Target))
		case last.Op == isa.OpRet:
			b.HasReturn = true
			succBuf = append(succBuf, g.ExitID)
		case last.Op == isa.OpHalt:
			succBuf = append(succBuf, g.ExitID)
		case last.Op == isa.OpJr:
			b.HasIndirect = true
			succBuf = append(succBuf, g.ExitID)
		default:
			// Fall through (includes calls).
			succBuf = append(succBuf, next)
		}
		b.Succs = succBuf[lo:len(succBuf):len(succBuf)]
		for _, s := range b.Succs {
			predEnd[s]++
		}
	}

	// Predecessor lists: a counting sort of the edges by target, filled
	// back to front so that each list holds its sources in block order.
	for v := 1; v <= nb; v++ {
		predEnd[v] += predEnd[v-1]
	}
	predBuf := make([]int, len(succBuf))
	for i := nb - 1; i >= 0; i-- {
		succs := blocks[i].Succs
		for j := len(succs) - 1; j >= 0; j-- {
			s := succs[j]
			predEnd[s]--
			predBuf[predEnd[s]] = i
		}
	}
	// predEnd now holds each node's start offset.
	for v := 0; v <= nb; v++ {
		lo, hi := predEnd[v], len(predBuf)
		if v < nb {
			hi = predEnd[v+1]
		}
		if lo == hi {
			continue // no predecessors: the list stays nil
		}
		if v == nb {
			g.exitPreds = predBuf[lo:hi:hi]
		} else {
			blocks[v].Preds = predBuf[lo:hi:hi]
		}
	}
	return g, nil
}

// BlockWeight returns the instruction count of a block with call
// instructions weighted by callWeight (the selection algorithms treat a
// call as standing for the callee's fetched body).
func (g *Graph) BlockWeight(id, callWeight int) int {
	if id < 0 || id >= len(g.Blocks) {
		return 0
	}
	b := g.Blocks[id]
	return b.End - b.Start + int(b.calls)*(callWeight-1)
}

// NumNodes returns the node count including the virtual exit.
func (g *Graph) NumNodes() int { return len(g.Blocks) + 1 }

// BlockAt returns the block containing address pc, or nil if pc is outside
// the function.
func (g *Graph) BlockAt(pc int) *Block {
	if pc < g.Fn.Entry || pc >= g.Fn.End {
		return nil
	}
	return g.Blocks[g.blockOf[pc-g.Fn.Entry]]
}

// Succs returns the successor IDs of node id (empty for the virtual exit).
func (g *Graph) Succs(id int) []int {
	if id == g.ExitID {
		return nil
	}
	return g.Blocks[id].Succs
}

// Preds returns the predecessor IDs of node id.
func (g *Graph) Preds(id int) []int {
	if id == g.ExitID {
		return g.exitPreds
	}
	return g.Blocks[id].Preds
}

// CondBranches returns the addresses of all conditional branches in the
// function, in address order.
func (g *Graph) CondBranches() []int {
	var out []int
	for _, b := range g.Blocks {
		if g.Code[b.End-1].IsCondBranch() {
			out = append(out, b.End-1)
		}
	}
	return out
}

// String renders the graph compactly for debugging.
func (g *Graph) String() string {
	s := fmt.Sprintf("cfg %s [%d,%d):\n", g.Fn.Name, g.Fn.Entry, g.Fn.End)
	for _, b := range g.Blocks {
		s += fmt.Sprintf("  B%d [%d,%d) -> %v\n", b.ID, b.Start, b.End, b.Succs)
	}
	return s
}
