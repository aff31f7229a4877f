package verify

// The profile pass validates a profile — collected or statically synthesized
// — against the program it claims to describe. Selection consumes profiles
// as ground truth, so a malformed profile source (counts on non-branch PCs,
// branch outcomes that do not sum to the branch's executions, frequency mass
// on unreachable blocks, flow that cannot have come over the CFG's edges)
// must be rejected fail-fast before any algorithm runs on it, exactly like an
// illegal annotation set.
//
// Flow conservation is checked with slack: a collected profile is exact, but
// a static estimate rounds each block count independently and caps cyclic
// probabilities (a capped loop header receives up to a relative 1-cap ≈ 1.6%
// more inflow than its synthesized count). The slack admits both while still
// catching counts that are structurally wrong.

import (
	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/profile"
)

// PassProfile names the profile-consistency pass. It is not part of Run's
// pass chain — it takes a profile alongside the program — but its
// diagnostics carry this pass name.
const PassProfile = "profile"

// profileSlackRel is the relative flow-conservation slack (covers cyclic
// capping at ~1.6% plus rounding).
const profileSlackRel = 0.02

// ProfileDiagnostics validates prof against p, returning every finding. The
// binary pass runs first, unless a clean verdict on the code covers it (its
// findings are returned alone when the binary itself is broken, matching
// Run's fail-at-root-cause behaviour).
func ProfileDiagnostics(p *isa.Program, prof *profile.Profile, name string) []Diagnostic {
	c := &checker{p: p, opts: Options{Program: name}.withDefaults()}
	if !codeClean(p) {
		if c.binaryPass(); len(c.diags) > 0 {
			return c.diags
		}
	}
	c.profilePass(prof)
	return c.diags
}

// CheckProfile is the fail-fast entry point: it returns an error summarising
// the diagnostics, or nil when the profile is consistent with the program.
func CheckProfile(p *isa.Program, prof *profile.Profile, name string) error {
	return asError(ProfileDiagnostics(p, prof, name))
}

func (c *checker) profilePass(prof *profile.Profile) {
	n := len(c.p.Code)
	for _, s := range []struct {
		name string
		ctr  []uint64
	}{
		{"ExecCount", prof.ExecCount},
		{"Taken", prof.Taken},
		{"NotTaken", prof.NotTaken},
		{"Mispred", prof.Mispred},
	} {
		if len(s.ctr) != n {
			c.report(PassProfile, -1, "%s has %d entries for a %d-instruction program", s.name, len(s.ctr), n)
			return
		}
	}

	var total uint64
	for pc := 0; pc < n; pc++ {
		total += prof.ExecCount[pc]
		if c.p.Code[pc].IsCondBranch() {
			if out := prof.Taken[pc] + prof.NotTaken[pc]; prof.Mispred[pc] > out {
				c.report(PassProfile, pc, "mispredictions %d exceed branch outcomes %d", prof.Mispred[pc], out)
			}
		} else if prof.Taken[pc]|prof.NotTaken[pc]|prof.Mispred[pc] != 0 {
			c.report(PassProfile, pc, "branch counters on non-branch instruction %s", c.p.Code[pc].Op)
		}
	}
	if total != prof.TotalRetired {
		c.report(PassProfile, -1, "TotalRetired %d but per-instruction counts sum to %d", prof.TotalRetired, total)
	}

	for _, fa := range cfg.Shared(c.p).Funcs {
		if fa.Err != nil {
			continue // the cfg pass owns reporting build failures
		}
		g := fa.Graph
		reach := c.reachable(g, 0, 0)
		for _, b := range g.Blocks {
			count := prof.ExecCount[b.Start]
			uniform := true
			for pc := b.Start + 1; pc < b.End; pc++ {
				if prof.ExecCount[pc] != count {
					c.report(PassProfile, pc, "count %d differs from its block's count %d (straight-line code retires atomically per entry)", prof.ExecCount[pc], count)
					uniform = false
					break
				}
			}
			if !reach.has(b.ID) {
				if count != 0 {
					c.report(PassProfile, b.Start, "unreachable block carries execution count %d", count)
				}
				continue
			}
			brPC := b.End - 1
			if c.p.Code[brPC].IsCondBranch() {
				if out := prof.Taken[brPC] + prof.NotTaken[brPC]; out != prof.ExecCount[brPC] {
					c.report(PassProfile, brPC, "branch outcomes %d+%d do not sum to its %d executions", prof.Taken[brPC], prof.NotTaken[brPC], prof.ExecCount[brPC])
				}
			}
			// Flow conservation: a non-entry block executes as often as its
			// CFG edges deliver control to it. The function entry block is
			// skipped (its inflow arrives through the call graph), as are
			// blocks whose straight-line counts already disagree.
			if b.ID == 0 || !uniform {
				continue
			}
			var in uint64
			for i, pid := range b.Preds {
				if i > 0 && b.Preds[i-1] == pid {
					// A conditional branch with both successor slots on this
					// block lists its pred twice; the Taken+NotTaken sum below
					// already covers both slots, so count the pred once.
					continue
				}
				pb := g.Blocks[pid]
				plast := g.Code[pb.End-1]
				if plast.IsCondBranch() {
					if pb.Succs[0] == b.ID {
						in += prof.NotTaken[pb.End-1]
					}
					if pb.Succs[1] == b.ID {
						in += prof.Taken[pb.End-1]
					}
				} else {
					in += prof.ExecCount[pb.Start]
				}
			}
			if diff := absDiffU64(in, count); diff > profileSlack(in, count, len(b.Preds)) {
				c.report(PassProfile, b.Start, "block executes %d times but its CFG edges deliver %d", count, in)
			}
		}
	}
}

// profileSlack is the tolerated |inflow - count| for a block with np
// predecessor edges: a fixed floor of one rounding unit per contributing
// counter, plus the relative term for cyclic capping.
func profileSlack(in, count uint64, np int) uint64 {
	slack := uint64(2 + np)
	hi := in
	if count > hi {
		hi = count
	}
	if rel := uint64(float64(hi) * profileSlackRel); rel > slack {
		slack = rel
	}
	return slack
}

func absDiffU64(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
