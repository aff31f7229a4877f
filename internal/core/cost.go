package core

// The Section 4 analytical cost-benefit model.
//
// Eq. 1:  dpred_cost = dpred_overhead * P(enter dpred | correct)
//                    + (dpred_overhead - misp_penalty) * P(enter dpred | misp)
// Eq. 2/3: the probabilities are (1 - AccConf) and AccConf.
// Eq. 4:  select when dpred_cost < 0.

// dpredCost evaluates Eq. 1 for a given overhead (in fetch cycles).
func dpredCost(overhead float64, p Params) float64 {
	return overhead*(1-p.AccConf) + (overhead-p.MispPenalty)*p.AccConf
}

// useless computes Eq. 13 for merging at candidate i (len(h.cands) for no
// block): the expected fetched instructions minus the useful
// (correct-path) ones, Eq. 5/12, with N(BH)/N(CH) estimated by method m.
func (h *hammock) useless(i int, takenProb float64, m OverheadMethod) float64 {
	nT, nNT := h.tk[i].expected, h.nt[i].expected
	if m == LongestPath {
		nT, nNT = float64(h.tk[i].longest), float64(h.nt[i].longest)
	}
	total := nT + nNT
	useful := takenProb*nT + (1-takenProb)*nNT
	return max(total-useful, 0)
}

// overhead computes the dpred overhead in fetch cycles of selecting every
// candidate, or a return CFM when retMerge is positive (there are no
// candidates then):
//
//   - a single exact CFM uses Eq. 14 (merging is certain);
//   - frequently-hammocks with multiple CFM points use Eq. 17, charging
//     half the branch-resolution time for the non-merging fraction
//     (Eq. 16's generalisation);
//   - a return CFM contributes like an address CFM with its own merge
//     probability, with the whole explored region as its fetched cost.
func (h *hammock) overhead(retMerge, takenProb float64, p Params) float64 {
	var sum, pm float64
	for i, m := range h.mergeP {
		sum += h.useless(i, takenProb, p.Method) * m
		pm += m
	}
	if retMerge > 0 {
		sum += h.useless(len(h.cands), takenProb, p.Method) * retMerge
		pm += retMerge
	}
	return sum/p.FetchWidth + (1-min(pm, 1))*(p.MispPenalty/2)
}
