package cfg

import (
	"slices"
	"sort"
)

// Path enumeration for Alg-freq (Section 3.3): a working-list/DFS algorithm
// that computes all control-flow paths following one direction of a branch,
// bounded by MAX_INSTR instructions and MAX_CBR conditional branches, and
// following only branch directions executed with probability at least
// MIN_EXEC_PROB in the profiling run.

// PathEnd says why a path stopped.
type PathEnd uint8

const (
	// EndMerged means the path reached the stop block (IPOSDOM).
	EndMerged PathEnd = iota
	// EndTruncated means the path hit the MAX_INSTR or MAX_CBR limit.
	EndTruncated
	// EndExit means the path left the function (return, halt, or an
	// indirect jump with unknown target).
	EndExit
)

// Path is one enumerated control-flow path after a branch.
type Path struct {
	// Blocks are the block IDs along the path in order, starting with the
	// branch successor. When End == EndMerged the final element is the stop
	// block itself (whose instructions are not counted in Insts).
	Blocks []int
	// Prob is the path probability under edge independence.
	Prob float64
	// Insts counts instructions on the path, excluding the stop block.
	Insts int
	// CondBrs counts conditional branches on the path, excluding the
	// originating diverge branch and the stop block.
	CondBrs int
	// End is the termination reason.
	End PathEnd
}

// FirstIndexOf returns the position of block id on the path, or -1.
func (p *Path) FirstIndexOf(id int) int {
	for i, b := range p.Blocks {
		if b == id {
			return i
		}
	}
	return -1
}

// PathLimits bounds path enumeration.
type PathLimits struct {
	// MaxInsts is the paper's MAX_INSTR threshold.
	MaxInsts int
	// MaxCondBrs is the paper's MAX_CBR threshold.
	MaxCondBrs int
	// MinExecProb is the paper's MIN_EXEC_PROB edge-frequency floor (0.001).
	MinExecProb float64
	// MaxPaths caps the number of enumerated paths per direction; an
	// engineering bound absent from the paper (which could afford unbounded
	// worklists on its workloads). 0 means DefaultMaxPaths.
	MaxPaths int
	// ProbFloor prunes DFS prefixes whose cumulative probability drops below
	// this value. 0 means DefaultProbFloor.
	ProbFloor float64
	// CallWeight is the instruction-count weight of a call instruction in
	// path-length accounting: a called function's body is fetched inside the
	// dynamic predication region even though the call is a single
	// instruction, so the selection algorithms treat calls as expensive.
	// 0 means DefaultCallWeight; pass a negative value for weight 1.
	CallWeight int
}

// Default engineering bounds for path enumeration.
const (
	DefaultMaxPaths   = 4096
	DefaultProbFloor  = 1e-7
	DefaultCallWeight = 25
)

func (l PathLimits) withDefaults() PathLimits {
	if l.MaxPaths == 0 {
		l.MaxPaths = DefaultMaxPaths
	}
	if l.ProbFloor == 0 {
		l.ProbFloor = DefaultProbFloor
	}
	if l.CallWeight == 0 {
		l.CallWeight = DefaultCallWeight
	} else if l.CallWeight < 0 {
		l.CallWeight = 1
	}
	return l
}

// EdgeProb returns the profiled probability of control flowing from block
// `from` to node `to` (a block ID or the virtual exit), given that `from`
// executes. Implementations are provided by the profile package.
type EdgeProb func(g *Graph, from, to int) float64

// PathSet holds the enumerated paths for one direction of a branch and the
// first-reach probability of every block in the explored region.
type PathSet struct {
	Paths []Path
	// Reach is indexed by block ID: the probability that the block is ever
	// reached on this direction (first-visit probability, summed over DFS
	// prefixes). It has one entry per block of the graph (none when nothing
	// was explored). Blocks outside the explored region read 0; under a
	// positive ProbFloor (the default) every explored block reads more.
	Reach []float64
	// Complete is false when MaxPaths truncated the enumeration.
	Complete bool
}

// MergeProb returns the probability that this direction reaches block id.
func (s *PathSet) MergeProb(id int) float64 {
	if id < 0 || id >= len(s.Reach) {
		return 0
	}
	return s.Reach[id]
}

// maxChunk is the largest backing chunk (in block IDs) EnumeratePaths grows
// to; larger chunks would be zeroed in full for a partly used tail.
const maxChunk = 4096

// EnumeratePaths explores all paths from startBlock (a successor of a
// diverge branch), stopping each path at stopBlock (pass -1 for none), at
// the virtual exit, or at the limits.
//
// The current DFS prefix is kept twice: as the ordered block list that
// becomes each recorded path, and as a per-block count of its occurrences,
// which answers "first visit on this prefix?" in O(1). The recorded paths'
// Blocks are carved from shared backing chunks.
func EnumeratePaths(g *Graph, startBlock, stopBlock int, prob EdgeProb, limits PathLimits) *PathSet {
	limits = limits.withDefaults()
	set := &PathSet{Reach: make([]float64, len(g.Blocks)), Complete: true}
	if startBlock == g.ExitID {
		return set
	}

	// Iterative DFS over path prefixes.
	type frame struct {
		block   int
		prob    float64
		insts   int
		cbrs    int
		nextSuc int
	}
	stack := []frame{}
	blocks := make([]int, 0, 32)           // the prefix, in order
	onPath := make([]int32, len(g.Blocks)) // occurrences of each block on the prefix
	var backing []int                      // chunk the recorded paths' Blocks are carved from

	record := func(end PathEnd, prob float64, insts, cbrs int, withLast bool) {
		if len(set.Paths) >= limits.MaxPaths {
			set.Complete = false
			return
		}
		n := len(blocks)
		if withLast {
			n++
		}
		if cap(backing)-len(backing) < n {
			// A fresh chunk, twice the last one up to 32 KiB (the first holds
			// just this path, as most sets have one): earlier paths keep
			// theirs, so nothing is copied.
			backing = make([]int, 0, max(n, min(2*cap(backing), maxChunk)))
		}
		lo := len(backing)
		backing = append(backing, blocks...)
		if withLast {
			backing = append(backing, stack[len(stack)-1].block)
		}
		hi := len(backing)
		if len(set.Paths) == cap(set.Paths) {
			// Double, where append would grow a long list by a quarter at a
			// time and allocate about five times its final size in all.
			set.Paths = slices.Grow(set.Paths, max(len(set.Paths), 1))
		}
		set.Paths = append(set.Paths, Path{Blocks: backing[lo:hi:hi], Prob: prob, Insts: insts, CondBrs: cbrs, End: end})
	}

	// enter pushes a new block onto the DFS and handles terminal conditions.
	// It returns false if the block terminated the path.
	push := func(id int, prob float64, insts, cbrs int) bool {
		stack = append(stack, frame{block: id, prob: prob, insts: insts, cbrs: cbrs})
		if onPath[id] == 0 {
			set.Reach[id] += prob
		}
		if id == stopBlock {
			record(EndMerged, prob, insts, cbrs, true)
			stack = stack[:len(stack)-1]
			return false
		}
		b := g.Blocks[id]
		insts += g.BlockWeight(id, limits.CallWeight)
		if g.Code[b.End-1].IsCondBranch() {
			cbrs++
		}
		top := &stack[len(stack)-1]
		top.insts = insts
		top.cbrs = cbrs
		if insts > limits.MaxInsts || cbrs > limits.MaxCondBrs {
			record(EndTruncated, prob, insts, cbrs, true)
			stack = stack[:len(stack)-1]
			return false
		}
		blocks = append(blocks, id)
		onPath[id]++
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
			if slices.Contains(succs[:top.nextSuc-1], s) {
				// A branch whose target is its fallthrough: EdgeProb is
				// per block pair and gives that block the branch's whole
				// probability, so the pair is followed once.
				continue
			}
			p := prob(g, top.block, s) * top.prob
			if p < top.prob*limits.MinExecProb || p < limits.ProbFloor {
				continue
			}
			if s == g.ExitID {
				record(EndExit, p, top.insts, top.cbrs, false)
				continue
			}
			if push(s, p, top.insts, top.cbrs) {
				advanced = true
				break
			}
			// push may have grown the stack into a new array before
			// popping the frame it ended: take the parent from there.
			top = &stack[len(stack)-1]
		}
		if advanced {
			continue
		}
		if top.nextSuc >= len(succs) {
			if len(succs) == 0 {
				record(EndExit, top.prob, top.insts, top.cbrs, false)
			}
			stack = stack[:len(stack)-1]
			onPath[blocks[len(blocks)-1]]--
			blocks = blocks[:len(blocks)-1]
			continue
		}
	}
	return set
}

// BranchPaths enumerates the taken- and not-taken-side path sets of the
// conditional branch at branchPC. stopBlock is typically IPOSDOM of the
// branch (-1 when none).
func BranchPaths(g *Graph, branchPC, stopBlock int, prob EdgeProb, limits PathLimits) (taken, notTaken *PathSet) {
	b := g.BlockAt(branchPC)
	if b == nil || b.End-1 != branchPC || !g.Code[branchPC].IsCondBranch() {
		return &PathSet{Complete: true}, &PathSet{Complete: true}
	}
	// Successor order is [fallthrough, taken] (see Build).
	nt, tk := b.Succs[0], b.Succs[1]
	taken = EnumeratePaths(g, tk, stopBlock, prob, limits)
	notTaken = EnumeratePaths(g, nt, stopBlock, prob, limits)
	return taken, notTaken
}

// CommonBlocks returns the block IDs reached on both directions, sorted by
// descending joint reach probability (the CFM candidate order of Alg-freq),
// ties broken by ascending ID.
func CommonBlocks(taken, notTaken *PathSet) []int {
	var out []int
	for id, r := range taken.Reach {
		if r != 0 && notTaken.MergeProb(id) > 0 {
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
