// Package gen is the stochastic DML workload generator: a microsmith-style
// ProgramBuilder whose grammar is steered by a serializable ProgramConf, so
// corpora of hundreds-to-thousands of well-formed, terminating benchmarks can
// be emitted, re-derived byte-for-byte from (conf, seed), and swept through
// profile→select→simulate to test the paper's claims on populations of
// programs instead of the 17 hand-written samples.
//
// The knobs follow what "Workload Characterization for Branch Predictability"
// identifies as the determinants of where diverge-merge predication wins:
// branch bias (conditions compare input-derived values against thresholds
// picked to hit a target taken probability), CFG idiom mix (short hammocks,
// pointed diamonds, frequently-hammocks with rare escape edges, nested
// hammocks, loops with data-dependent exits), and program-size budgets.
package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
)

// ManifestVersion identifies the generator's seed-compatibility era in every
// corpus manifest. Version 1 was the legacy bench.GenSource generator built
// on math/rand's deprecated rand.NewSource-per-call pattern; version 2 is
// this package's math/rand/v2 PCG streams. The two eras produce different
// program text for the same seed, so fuzz corpora and simcache-keyed results
// derived from v1 seeds are NOT reproducible under v2 — any consumer that
// pins (conf, seed) pairs must record the manifest version beside them.
const ManifestVersion = 2

// IntRange is an inclusive [Min, Max] integer range a builder draws from.
type IntRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

func (r IntRange) pick(rng *rand.Rand) int {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.IntN(r.Max-r.Min+1)
}

func (r IntRange) valid() bool { return r.Min >= 0 && r.Max >= r.Min }

// ProgramConf is the full knob set of the generator. Every field participates
// in JSON serialization, so a conf can be stored in a corpus manifest and any
// generated program re-derived from (conf, seed) alone.
type ProgramConf struct {
	// Name labels the conf (preset name, or a user-chosen tag).
	Name string `json:"name"`

	// Function-count/size budgets.
	Funcs      IntRange `json:"funcs"`       // helper functions per program
	FuncArity  IntRange `json:"func_arity"`  // parameters per helper
	FuncBudget IntRange `json:"func_budget"` // statement budget per helper
	MainBudget IntRange `json:"main_budget"` // statement budget for main

	// Global state.
	Scalars       IntRange `json:"scalars"`
	Arrays        IntRange `json:"arrays"`
	ArraySizeLog2 IntRange `json:"array_size_log2"` // 3..6 → 8..64 words

	// Statement mix: relative weights of the idiom-bearing statement kinds.
	// A weight of zero disables the kind entirely.
	AssignWeight  int `json:"assign_weight"`
	VarWeight     int `json:"var_weight"`
	StoreWeight   int `json:"store_weight"`
	OutWeight     int `json:"out_weight"`
	HammockWeight int `json:"hammock_weight"`
	LoopWeight    int `json:"loop_weight"`
	CallWeight    int `json:"call_weight"`

	// Hammock shape.
	DiamondProb      float64  `json:"diamond_prob"`       // P(else arm): pointed diamond vs plain hammock
	ShortHammockProb float64  `json:"short_hammock_prob"` // P(arms forced to 1-2 simple stmts)
	EscapeProb       float64  `json:"escape_prob"`        // P(rare break inside a loop hammock arm) — frequently-hammock
	MaxHammockDepth  int      `json:"max_hammock_depth"`  // nesting bound for hammocks
	HammockArmStmts  IntRange `json:"hammock_arm_stmts"`  // statements per arm (when not short)

	// Branch bias: with probability BiasCondProb (and an input-derived value
	// in scope) a hammock condition is `((v + c) & 4095) < T`, where T is
	// chosen so the taken probability matches a target drawn from
	// BiasTargets. Input tapes are uniform, so the bias target is realized.
	BiasTargets  []float64 `json:"bias_targets"`
	BiasCondProb float64   `json:"bias_cond_prob"`

	// Loop trip-count distribution: bounds drawn from LoopTrip, or (with
	// probability TripGeomProb) min + a geometric tail capped at max — short
	// loops common, long loops rare. BreakProb adds a data-dependent break,
	// the paper's unpredictable-exit loop idiom.
	LoopTrip     IntRange `json:"loop_trip"`
	TripGeomProb float64  `json:"trip_geom_prob"`
	BreakProb    float64  `json:"break_prob"`

	// Expression shape.
	ExprDepth IntRange `json:"expr_depth"`

	// Input tapes (one value per main-loop iteration; uniform in
	// [0, InputMax) so masked comparisons realize their bias targets).
	InputLen IntRange `json:"input_len"`
	InputMax int64    `json:"input_max"`
}

// Validate rejects confs the builder cannot honour.
func (c ProgramConf) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("gen: conf has no name")
	}
	for _, r := range []struct {
		name string
		r    IntRange
	}{
		{"funcs", c.Funcs}, {"func_arity", c.FuncArity}, {"func_budget", c.FuncBudget},
		{"main_budget", c.MainBudget}, {"scalars", c.Scalars}, {"arrays", c.Arrays},
		{"array_size_log2", c.ArraySizeLog2}, {"hammock_arm_stmts", c.HammockArmStmts},
		{"loop_trip", c.LoopTrip}, {"expr_depth", c.ExprDepth}, {"input_len", c.InputLen},
	} {
		if !r.r.valid() {
			return fmt.Errorf("gen: conf %q: range %s [%d,%d] invalid", c.Name, r.name, r.r.Min, r.r.Max)
		}
	}
	if c.Scalars.Min < 1 {
		return fmt.Errorf("gen: conf %q: needs at least one scalar global", c.Name)
	}
	if c.Arrays.Min < 1 {
		return fmt.Errorf("gen: conf %q: needs at least one array", c.Name)
	}
	if c.ArraySizeLog2.Min < 1 || c.ArraySizeLog2.Max > 12 {
		return fmt.Errorf("gen: conf %q: array_size_log2 must stay in [1,12]", c.Name)
	}
	if c.LoopTrip.Min < 1 {
		return fmt.Errorf("gen: conf %q: loop trip bound must be >= 1", c.Name)
	}
	total := c.AssignWeight + c.VarWeight + c.StoreWeight + c.OutWeight +
		c.HammockWeight + c.LoopWeight + c.CallWeight
	if total <= 0 {
		return fmt.Errorf("gen: conf %q: all statement weights are zero", c.Name)
	}
	for _, w := range []struct {
		name string
		w    int
	}{
		{"assign", c.AssignWeight}, {"var", c.VarWeight}, {"store", c.StoreWeight},
		{"out", c.OutWeight}, {"hammock", c.HammockWeight}, {"loop", c.LoopWeight},
		{"call", c.CallWeight},
	} {
		if w.w < 0 {
			return fmt.Errorf("gen: conf %q: %s weight negative", c.Name, w.name)
		}
	}
	for _, p := range []struct {
		name string
		p    float64
	}{
		{"diamond_prob", c.DiamondProb}, {"short_hammock_prob", c.ShortHammockProb},
		{"escape_prob", c.EscapeProb}, {"bias_cond_prob", c.BiasCondProb},
		{"trip_geom_prob", c.TripGeomProb}, {"break_prob", c.BreakProb},
	} {
		if p.p < 0 || p.p > 1 {
			return fmt.Errorf("gen: conf %q: %s = %v outside [0,1]", c.Name, p.name, p.p)
		}
	}
	for _, t := range c.BiasTargets {
		if t <= 0 || t >= 1 {
			return fmt.Errorf("gen: conf %q: bias target %v outside (0,1)", c.Name, t)
		}
	}
	if c.MaxHammockDepth < 0 {
		return fmt.Errorf("gen: conf %q: max_hammock_depth negative", c.Name)
	}
	if c.InputMax < 2 {
		return fmt.Errorf("gen: conf %q: input_max must be >= 2", c.Name)
	}
	return nil
}

// Hash returns the sha256 of the conf's canonical JSON form, used to key
// manifests and golden corpora.
func (c ProgramConf) Hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("gen: conf marshal: %v", err)) // no unmarshalable fields
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Default returns the balanced "mixed" preset, the conf behind
// bench.GenSource and the general-purpose fuzz seed corpus.
func Default() ProgramConf { return mustPreset("mixed") }

// Preset returns the named preset conf and whether it exists.
func Preset(name string) (ProgramConf, bool) {
	for _, c := range Presets() {
		if c.Name == name {
			return c, true
		}
	}
	return ProgramConf{}, false
}

func mustPreset(name string) ProgramConf {
	c, ok := Preset(name)
	if !ok {
		panic("gen: missing preset " + name)
	}
	return c
}

// PresetNames lists the built-in preset names in order.
func PresetNames() []string {
	ps := Presets()
	out := make([]string, len(ps))
	for i, c := range ps {
		out[i] = c.Name
	}
	return out
}

// ResolvePresets resolves a preset selection: preset names in order, or
// "all" for every preset. An "all" anywhere in the list selects every
// preset; the names before it must still exist. An unknown name fails
// with an error listing PresetNames. Command-line flags split their value
// on commas.
func ResolvePresets(names []string) ([]ProgramConf, error) {
	var confs []ProgramConf
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "all" {
			return Presets(), nil
		}
		c, ok := Preset(name)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q (have: %s)", name, strings.Join(PresetNames(), ", "))
		}
		confs = append(confs, c)
	}
	return confs, nil
}

// Presets returns the built-in conf presets. Each targets a control-flow
// population the paper's evaluation cares about; together they span the
// idiom space the per-idiom win/loss report groups over.
func Presets() []ProgramConf {
	base := ProgramConf{
		Funcs:         IntRange{1, 3},
		FuncArity:     IntRange{0, 3},
		FuncBudget:    IntRange{4, 11},
		MainBudget:    IntRange{8, 17},
		Scalars:       IntRange{1, 3},
		Arrays:        IntRange{1, 2},
		ArraySizeLog2: IntRange{3, 6},

		AssignWeight:  3,
		VarWeight:     2,
		StoreWeight:   2,
		OutWeight:     1,
		HammockWeight: 3,
		LoopWeight:    2,
		CallWeight:    2,

		DiamondProb:      0.5,
		ShortHammockProb: 0.3,
		EscapeProb:       0.1,
		MaxHammockDepth:  3,
		HammockArmStmts:  IntRange{1, 3},

		BiasTargets:  []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		BiasCondProb: 0.6,

		LoopTrip:     IntRange{2, 8},
		TripGeomProb: 0.3,
		BreakProb:    0.25,

		ExprDepth: IntRange{1, 3},
		InputLen:  IntRange{32, 96},
		InputMax:  1 << 30,
	}

	mixed := base
	mixed.Name = "mixed"

	// Low-bias (hard-to-predict) branches guarding short hammocks: the
	// population where the paper's Table 2 says DMP wins most.
	biased := base
	biased.Name = "biased-branch"
	biased.HammockWeight = 6
	biased.LoopWeight = 1
	biased.DiamondProb = 0.6
	biased.ShortHammockProb = 0.8
	biased.EscapeProb = 0.05
	biased.MaxHammockDepth = 2
	biased.BiasTargets = []float64{0.35, 0.45, 0.5, 0.55, 0.65}
	biased.BiasCondProb = 0.9

	// Deeply nested hammocks/diamonds: stresses CFM-point selection inside
	// enclosing control flow and the overlap handling of selection.
	deep := base
	deep.Name = "deep-hammock"
	deep.HammockWeight = 7
	deep.LoopWeight = 1
	deep.MaxHammockDepth = 5
	deep.DiamondProb = 0.7
	deep.ShortHammockProb = 0.1
	deep.HammockArmStmts = IntRange{2, 4}
	deep.MainBudget = IntRange{14, 26}
	deep.FuncBudget = IntRange{8, 16}

	// Loops with data-dependent exits and geometric trip counts: the
	// unpredictable-exit loop idiom (Section 5.1's loop dpred cases).
	loopy := base
	loopy.Name = "loopy"
	loopy.LoopWeight = 6
	loopy.HammockWeight = 2
	loopy.LoopTrip = IntRange{2, 24}
	loopy.TripGeomProb = 0.7
	loopy.BreakProb = 0.5
	loopy.EscapeProb = 0.2

	// Mostly predictable, control-light programs (the vortex/gap analogue):
	// the population where DMP should at worst break even.
	straight := base
	straight.Name = "straightline"
	straight.HammockWeight = 1
	straight.LoopWeight = 1
	straight.AssignWeight = 6
	straight.StoreWeight = 4
	straight.CallWeight = 3
	straight.BiasTargets = []float64{0.02, 0.05, 0.95, 0.98}
	straight.BreakProb = 0.05
	straight.EscapeProb = 0

	return []ProgramConf{mixed, biased, deep, loopy, straight}
}
