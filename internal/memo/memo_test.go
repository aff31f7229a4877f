package memo

import (
	"sync"
	"testing"
)

// TestGetRacingBuildsReturnOneValue makes every caller build before any of
// them stores: all must still return the one value stored first.
func TestGetRacingBuildsReturnOneValue(t *testing.T) {
	b := Bounded[int, *int]{Cap: 4}
	got := make([]*int, 4)
	var entered, done sync.WaitGroup
	entered.Add(len(got))
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			got[i] = b.Get(1, func() *int {
				entered.Done()
				entered.Wait()
				return new(int)
			})
		}()
	}
	done.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got its own value", i)
		}
	}
}

// TestGetBounded checks that the cap drops the map rather than growing it,
// and that the memo keeps memoizing after a drop.
func TestGetBounded(t *testing.T) {
	b := Bounded[int, *int]{Cap: 2}
	for k := 0; k < 5; k++ {
		b.Get(k, func() *int { return new(int) })
		if b.Len() > b.Cap {
			t.Fatalf("%d entries, cap %d", b.Len(), b.Cap)
		}
	}
	if b.Get(9, func() *int { return new(int) }) != b.Get(9, func() *int { return new(int) }) {
		t.Fatal("memo stopped memoizing after a drop")
	}
}
