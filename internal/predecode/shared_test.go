package predecode

import (
	"testing"

	"dmp/internal/isa"
)

func sharedProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Func("main")
	b.ALUI(isa.OpAdd, 1, 1, 1)
	b.Out(1)
	b.Halt()
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// TestSharedMemoizesByCodeIdentity checks that Shared returns one predecoded
// program per code segment, including across annotation variants (WithAnnots
// shares the code array), and that distinct programs do not share.
func TestSharedMemoizesByCodeIdentity(t *testing.T) {
	p := sharedProg(t)
	a := Shared(p)
	if b := Shared(p); a != b {
		t.Fatal("Shared recompiled an identical program")
	}
	annotated := p.WithAnnots(map[int]*isa.DivergeInfo{})
	if b := Shared(annotated); a != b {
		t.Fatal("Shared recompiled an annotation variant sharing the code segment")
	}
	q := sharedProg(t)
	if b := Shared(q); a == b {
		t.Fatal("Shared returned one program's predecode for a different program")
	}
}

// TestSharedBounded checks the overflow behaviour: the memo drops and keeps
// working rather than growing without bound under fuzz-scale program churn.
func TestSharedBounded(t *testing.T) {
	for i := 0; i < sharedMemo.Cap+16; i++ {
		Shared(sharedProg(t))
	}
	if n := sharedMemo.Len(); n > sharedMemo.Cap {
		t.Fatalf("memo grew to %d entries, cap is %d", n, sharedMemo.Cap)
	}
	p := sharedProg(t)
	if a, b := Shared(p), Shared(p); a != b {
		t.Fatal("memo stopped memoizing after overflow")
	}
}
