package undo

import (
	"slices"
	"testing"
)

// TestRollback: a journaled table changed many times, some entries more
// than once, rolls back to exactly its contents at Start; writes while the
// log is off are not recorded; and the log serves a second round.
func TestRollback(t *testing.T) {
	tab := []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	orig := slices.Clone(tab)
	var l Log[int]
	if l.On() {
		t.Fatal("zero log is on")
	}
	for round := 0; round < 2; round++ {
		l.Start(len(tab))
		for _, i := range []int{3, 7, 3, 9, 0, 7} {
			if l.On() {
				l.Save(tab, i)
			}
			tab[i] += 100 + round
		}
		l.Rollback(tab)
		if !slices.Equal(tab, orig) || l.On() {
			t.Fatalf("round %d: rolled back to %v (on %v), want %v", round, tab, l.On(), orig)
		}
	}
	tab[4] = -1 // unrecorded: the log is off
	l.Start(len(tab))
	l.Rollback(tab)
	if tab[4] != -1 {
		t.Errorf("a write made while the log was off was undone")
	}
}
