package core

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/profile"
)

// algorithms lists the selection algorithms by name, in the order
// Algorithms reports them: the paper's heuristic and cost-benefit
// selections, then the Section 7.2 simple baselines.
var algorithms = []string{
	"heur", "cost-long", "cost-edge",
	"every", "random50", "highbp", "immediate", "ifelse",
}

var baselinesByName = map[string]Baseline{
	"every": EveryBranch, "random50": Random50, "highbp": HighBP5,
	"immediate": Immediate, "ifelse": IfElse,
}

// Algorithms returns the names SelectByName accepts.
func Algorithms() []string { return append([]string(nil), algorithms...) }

// CheckAlgorithm reports an error naming the valid choices when name is not
// a selection algorithm.
func CheckAlgorithm(name string) error {
	for _, a := range algorithms {
		if a == name {
			return nil
		}
	}
	return fmt.Errorf("unknown selection algorithm %q (valid: %v)", name, algorithms)
}

// SelectByName runs the named selection algorithm (see Algorithms): "heur"
// is All-best-heur, "cost-long" and "cost-edge" the All-best-cost variants,
// and the rest the simple baselines, with Random-50 drawn from seed 1.
func SelectByName(prog *isa.Program, prof *profile.Profile, name string) (*Result, error) {
	switch name {
	case "heur":
		return Select(prog, prof, HeuristicParams())
	case "cost-long":
		return Select(prog, prof, CostParams(LongestPath))
	case "cost-edge":
		return Select(prog, prof, CostParams(EdgeWeighted))
	}
	b, ok := baselinesByName[name]
	if !ok {
		return nil, CheckAlgorithm(name)
	}
	return SelectBaseline(prog, prof, b, 1)
}
