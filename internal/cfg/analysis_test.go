package cfg

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"dmp/internal/isa"
)

// TestSharedPerCodeArray checks that Shared builds one analysis per code
// array, that a binary's annotation variants share it, and that it equals
// a fresh build.
func TestSharedPerCodeArray(t *testing.T) {
	p, _ := simpleHammock(t)
	a := Shared(p)
	if Shared(p) != a || Shared(p.WithAnnots(map[int]*isa.DivergeInfo{})) != a {
		t.Fatal("Shared rebuilt the analysis of one code array")
	}
	if !reflect.DeepEqual(a, analyze(p)) {
		t.Fatal("shared analysis differs from a fresh build")
	}
	if fa := a.FuncAt(1); fa == nil || fa.Err != nil || fa.Fn.Name != "main" || len(fa.Graph.Blocks) != 4 {
		t.Fatalf("FuncAt(1) = %+v, want main's 4-block analysis", fa)
	}
	if a.FuncAt(len(p.Code)) != nil {
		t.Fatal("FuncAt past the code returned a function")
	}
}

// TestSharedBounded checks the overflow behaviour: the memo drops and keeps
// working rather than growing without bound under program churn.
func TestSharedBounded(t *testing.T) {
	for i := 0; i < sharedMemo.Cap+16; i++ {
		p, _ := simpleHammock(t)
		Shared(p)
	}
	if n := sharedMemo.Len(); n > sharedMemo.Cap {
		t.Fatalf("memo grew to %d entries, cap is %d", n, sharedMemo.Cap)
	}
	p, _ := simpleHammock(t)
	if Shared(p) != Shared(p) {
		t.Fatal("memo stopped memoizing after overflow")
	}
}

// TestSharedConcurrentFirstUse checks that goroutines racing on the first
// use of one program all get the same analysis.
func TestSharedConcurrentFirstUse(t *testing.T) {
	p, _ := simpleHammock(t)
	got := make([]*Analysis, 8)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			got[i] = Shared(p)
		}()
	}
	close(gate)
	wg.Wait()
	for i, a := range got {
		if a != got[0] {
			t.Fatalf("goroutine %d got a different analysis", i)
		}
	}
}

// TestSharedNotServedToOtherPrograms checks that programs which share the
// original's code array or symbol table, in part or not at all, each get
// their own analysis: a mutated deep copy, new symbols over the same code,
// a shorter symbol slice of the same array and a shorter code slice.
func TestSharedNotServedToOtherPrograms(t *testing.T) {
	p, _ := simpleHammock(t)
	mutated := *p
	mutated.Code = slices.Clone(p.Code)
	mutated.Funcs = slices.Clone(p.Funcs)
	mutated.Code[3] = isa.Inst{Op: isa.OpHalt} // the then-arm's jmp to the merge
	renamed := *p
	renamed.Funcs = []isa.Func{{Name: "renamed", Entry: 0, End: len(p.Code)}}
	split := *p
	split.Funcs = []isa.Func{{Name: "main", Entry: 0, End: 4}, {Name: "tail", Entry: 4, End: len(p.Code)}}
	firstOnly := split
	firstOnly.Funcs = split.Funcs[:1]
	truncated := *p
	truncated.Code = p.Code[:4]
	for i, q := range []*isa.Program{p, &mutated, &renamed, &split, &firstOnly, &truncated} {
		if !reflect.DeepEqual(Shared(q), analyze(q)) {
			t.Errorf("program %d was served another program's analysis", i)
		}
	}
}
