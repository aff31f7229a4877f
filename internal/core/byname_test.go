package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestSelectByName: every listed name selects exactly what the algorithm it
// names selects, and an unknown name is rejected with the valid choices.
func TestSelectByName(t *testing.T) {
	p, _, _ := inputLoopHammock(t, 4)
	prof := collect(t, p, randBits(3, 400))
	want := map[string]func() (*Result, error){
		"heur":      func() (*Result, error) { return Select(p, prof, HeuristicParams()) },
		"cost-long": func() (*Result, error) { return Select(p, prof, CostParams(LongestPath)) },
		"cost-edge": func() (*Result, error) { return Select(p, prof, CostParams(EdgeWeighted)) },
		"every":     func() (*Result, error) { return SelectBaseline(p, prof, EveryBranch, 1) },
		"random50":  func() (*Result, error) { return SelectBaseline(p, prof, Random50, 1) },
		"highbp":    func() (*Result, error) { return SelectBaseline(p, prof, HighBP5, 1) },
		"immediate": func() (*Result, error) { return SelectBaseline(p, prof, Immediate, 1) },
		"ifelse":    func() (*Result, error) { return SelectBaseline(p, prof, IfElse, 1) },
	}
	if len(Algorithms()) != len(want) {
		t.Fatalf("Algorithms() = %v, want %d names", Algorithms(), len(want))
	}
	for _, name := range Algorithms() {
		if err := CheckAlgorithm(name); err != nil {
			t.Errorf("CheckAlgorithm(%q) = %v", name, err)
		}
		got, err := SelectByName(p, prof, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := want[name]()
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: SelectByName differs from the algorithm it names", name)
		}
	}
	if _, err := SelectByName(p, prof, "no-algo"); err == nil || !strings.Contains(err.Error(), "heur") {
		t.Errorf("unknown name: err = %v, want one listing the valid names", err)
	}
}
