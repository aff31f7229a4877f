// Package undo journals changes to flat tables so that a run can change a
// table and then put it back exactly as it was. A sampled simulation runs
// each configuration's detailed interval on the functionally warmed
// predictor and cache tables under a journal and rolls them back after it,
// instead of copying them whole for every interval: an interval touches a
// few hundred entries of tables that hold tens of thousands.
package undo

// Log records the first change to each entry of one table while it is on.
// The zero value is off.
type Log[T any] struct {
	on    bool
	saved []uint64 // bit i set: entry i is recorded
	idx   []int
	old   []T
}

// Start turns recording on for a table of n entries.
func (l *Log[T]) Start(n int) {
	if words := (n + 63) / 64; len(l.saved) < words {
		l.saved = make([]uint64, words)
		l.idx, l.old = make([]int, 0, 64), make([]T, 0, 64)
	}
	l.on = true
}

// On reports whether the log is recording; a table checks it before
// calling Save, so that an unjournaled write costs one predictable branch.
func (l *Log[T]) On() bool { return l.on }

// Save records tab[i] unless the log already holds it. Call it before
// changing tab[i].
func (l *Log[T]) Save(tab []T, i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if l.saved[w]&b != 0 {
		return
	}
	l.saved[w] |= b
	l.idx = append(l.idx, i)
	l.old = append(l.old, tab[i])
}

// Rollback restores every recorded entry of tab and turns recording off.
// The log keeps its buffers for the next Start.
func (l *Log[T]) Rollback(tab []T) {
	for k, i := range l.idx {
		tab[i] = l.old[k]
		l.saved[i>>6] &^= 1 << (i & 63)
	}
	l.idx, l.old, l.on = l.idx[:0], l.old[:0], false
}
