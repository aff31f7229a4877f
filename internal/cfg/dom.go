package cfg

// Dominator and post-dominator trees via the Cooper-Harvey-Kennedy
// "engineered" iterative algorithm ("A Simple, Fast Dominance Algorithm",
// Software Practice & Experience 2001) — the algorithm the paper cites for
// computing immediate post-dominators (exact CFM points).

// DomTree holds immediate-(post)dominator links for every node of a Graph.
type DomTree struct {
	// Idom[v] is the immediate (post)dominator of node v, or -1 for the root
	// and for nodes unreachable in the traversal direction.
	Idom []int
	root int
}

// Root returns the tree root (entry block for dominators, virtual exit for
// post-dominators).
func (t *DomTree) Root() int { return t.root }

// Dominates reports whether a (post)dominates b (reflexively).
func (t *DomTree) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = t.Idom[b]
	}
	return false
}

// Dominators computes the dominator tree rooted at the function entry block
// (block 0 — the entry has the lowest start address by construction).
func Dominators(g *Graph) *DomTree {
	return chk(g.NumNodes(), entryNode, g.Succs, g.Preds)
}

// PostDominators computes the post-dominator tree rooted at the virtual exit
// node. IPOSDOM(b) — the exact CFM point of a branch ending block b — is
// Idom[b] in this tree.
func PostDominators(g *Graph) *DomTree {
	return chk(g.NumNodes(), g.ExitID, g.Preds, g.Succs)
}

const entryNode = 0

// chk runs Cooper-Harvey-Kennedy over the graph defined by succ/pred from
// the given root. For post-dominators the caller passes the reversed graph.
func chk(n, root int, succ, pred func(int) []int) *DomTree {
	// Postorder numbering of the traversal from root.
	post := make([]int, 0, n) // nodes in postorder
	postNum := make([]int, n) // node -> postorder number; -1 unvisited, -2 on the stack
	for i := range postNum {
		postNum[i] = -1
	}
	// Iterative DFS; its depth is at most n.
	type frame struct {
		node int
		next int
	}
	stack := make([]frame, 1, n)
	stack[0] = frame{root, 0}
	postNum[root] = -2
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ss := succ(f.node)
		if f.next < len(ss) {
			s := ss[f.next]
			f.next++
			if postNum[s] == -1 {
				postNum[s] = -2
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		postNum[f.node] = len(post)
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for postNum[a] < postNum[b] {
				a = idom[a]
			}
			for postNum[b] < postNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		// Reverse postorder, skipping the root.
		for i := len(post) - 2; i >= 0; i-- {
			v := post[i]
			newIdom := -1
			for _, p := range pred(v) {
				if postNum[p] == -1 || idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	idom[root] = -1
	return &DomTree{Idom: idom, root: root}
}

// IPosDom returns the immediate post-dominator block ID of the block ending
// with the branch at branchPC, or -1 when the branch has no post-dominator
// other than the virtual exit (i.e. no exact CFM point exists).
func IPosDom(g *Graph, pdom *DomTree, branchPC int) int {
	b := g.BlockAt(branchPC)
	if b == nil || b.End-1 != branchPC {
		return -1
	}
	ip := pdom.Idom[b.ID]
	if ip == -1 || ip == g.ExitID {
		return -1
	}
	return ip
}
