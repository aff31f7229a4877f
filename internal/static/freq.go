package static

// Static block-frequency propagation: starting from the per-branch taken
// probabilities, compute each block's expected execution frequency per
// function invocation — the expected-visit-count solution of the flow
// equations f = e0 + c*P^T*f, where P holds the branch-probability edge
// weights, e0 is one unit of external flow into the entry block, and
// c = maxCyclic is a damping factor just below 1.
//
// The damping is the cyclic-frequency cap: every cycle's gain is bounded by
// 1/(1-c) (64 at the default 63/64), so statically infinite or extremely hot
// loops produce large-but-finite frequencies, and the system matrix I - c*P^T
// is strictly nonsingular (the spectral radius of c*P^T is at most c < 1),
// so irreducible regions need no special casing — retreating edges are
// counted for diagnostics but participate in the solve like any other edge.
// Unlike per-loop cyclic-probability capping, whose flow-conservation error
// compounds across nested hot loops, damping bounds the verifier-visible
// mismatch uniformly: a block's undamped inflow exceeds its damped frequency
// by at most a relative 1-c (~1.6%), inside the profile pass's 2% slack.

import "dmp/internal/cfg"

// edgeProb returns the static probability of control flowing from block
// `from` to block `to`, given `from` executes, under the estimated per-branch
// taken probabilities. It mirrors profile.Profile.EdgeProb's successor
// handling (successor order [fallthrough, taken]).
func edgeProb(g *cfg.Graph, probs map[int]float64, from, to int) float64 {
	b := g.Blocks[from]
	if !g.Code[b.End-1].IsCondBranch() || len(b.Succs) < 2 {
		if len(b.Succs) > 0 && b.Succs[0] == to {
			return 1
		}
		return 0
	}
	p := probs[b.End-1]
	var out float64
	if b.Succs[0] == to {
		out += 1 - p
	}
	if b.Succs[1] == to {
		out += p
	}
	return out
}

// blockFreqs computes per-block frequencies for one function invocation
// (one unit of flow into the entry block). It returns the frequency vector
// (0 for blocks unreachable from the entry) and the number of irreducible
// retreating edges — edges to an already-ordered node whose target does not
// dominate the source. Their flow is kept (the damped solve converges
// regardless); the count is reported so callers can see how much of the CFG
// fell outside natural-loop structure.
func blockFreqs(fa *cfg.FuncAnalysis, probs map[int]float64, maxCyclic float64) ([]float64, int) {
	g := fa.Graph
	nb := len(g.Blocks)
	order, pos := blockRPO(g)
	m := len(order)

	irreducible := 0
	for _, n := range order {
		for i, p := range g.Blocks[n].Preds {
			if i > 0 && g.Blocks[n].Preds[i-1] == p {
				continue // duplicated pred: both successor slots point here
			}
			if pos[p] < 0 || fa.Dom.Dominates(n, p) {
				continue
			}
			if pos[p] >= pos[n] {
				irreducible++
			}
		}
	}

	// Dense system over the reachable blocks (row i = equation for order[i]):
	// f_i - c * sum_p P(p->i) f_p = e0_i. Function CFGs are small (tens of
	// blocks), so O(m^3) elimination is cheap and exact.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1)
		a[i][i] = 1
	}
	a[0][m] = 1 // external flow into the entry block
	for i, n := range order {
		for j, p := range g.Blocks[n].Preds {
			if j > 0 && g.Blocks[n].Preds[j-1] == p {
				// edgeProb already sums both successor slots of a branch whose
				// two targets are this block; count the duplicated pred once.
				continue
			}
			if pos[p] < 0 {
				continue // predecessor unreachable from the entry
			}
			a[i][pos[p]] -= maxCyclic * edgeProb(g, probs, p, n)
		}
	}
	sol := solveDense(a)

	f := make([]float64, nb)
	for i, n := range order {
		if v := sol[i]; v > 0 {
			f[n] = v
		}
	}
	return f, irreducible
}

// solveDense runs Gaussian elimination with partial pivoting on the
// augmented matrix a (n rows, n+1 columns) and returns the solution vector.
// Callers only pass strictly diagonally solvable systems (I - c*P^T with
// c < 1), so a vanishing pivot cannot occur up to roundoff; if it does, the
// affected variable resolves to 0 rather than poisoning the rest.
func solveDense(a [][]float64) []float64 {
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if abs(a[col][col]) < 1e-12 {
			continue
		}
		inv := 1 / a[col][col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			factor := a[r][col] * inv
			for c := col; c <= n; c++ {
				a[r][c] -= factor * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if abs(a[i][i]) >= 1e-12 {
			x[i] = a[i][n] / a[i][i]
		}
	}
	return x
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// blockRPO returns a reverse-postorder of the function's blocks from the
// entry (block 0), plus each block's position in that order (-1 for blocks
// unreachable from the entry).
func blockRPO(g *cfg.Graph) (order []int, pos []int) {
	nb := len(g.Blocks)
	pos = make([]int, nb)
	for i := range pos {
		pos[i] = -1
	}
	visited := make([]bool, nb)
	post := make([]int, 0, nb)
	type frame struct {
		node int
		next int
	}
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ss := g.Blocks[f.node].Succs
		if f.next < len(ss) {
			s := ss[f.next]
			f.next++
			if s != g.ExitID && !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	order = make([]int, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
		pos[order[i]] = i
	}
	return order, pos
}
