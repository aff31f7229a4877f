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

// TestPutReplacesAndBounds checks that Put replaces a stored value without
// counting it twice, that Load sees it, and that new keys respect the cap.
func TestPutReplacesAndBounds(t *testing.T) {
	b := Bounded[int, int]{Cap: 2}
	if _, ok := b.Load(1); ok {
		t.Fatal("empty memo holds a value")
	}
	b.Put(1, 10)
	b.Put(2, 20)
	b.Put(1, 11) // a replacement, not a new key: nothing is dropped
	if v, ok := b.Load(1); !ok || v != 11 {
		t.Fatalf("Load(1) = %d, %v after replacing it with 11", v, ok)
	}
	if v, ok := b.Load(2); !ok || v != 20 {
		t.Fatalf("Load(2) = %d, %v; a replacement dropped it", v, ok)
	}
	b.Put(3, 30)
	if n := b.Len(); n > b.Cap {
		t.Fatalf("%d entries, cap %d", n, b.Cap)
	}
	if v, ok := b.Load(3); !ok || v != 30 {
		t.Fatalf("Load(3) = %d, %v after a drop", v, ok)
	}
}
