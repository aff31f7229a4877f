// Package memo provides the bounded cache through which layers share
// artifacts derived from one code array.
package memo

import "sync"

// Bounded maps keys to values built on first use. It holds at most Cap
// entries and drops them all on overflow: no recency to track, and every
// entry can be rebuilt. The bound matters for identity keys such as a code
// array's address, since every entry pins its program and generators make
// tens of thousands of short-lived ones. It is safe for concurrent use.
type Bounded[K comparable, V any] struct {
	Cap int
	mu  sync.Mutex
	m   map[K]V
}

// Get returns the value stored under k, or builds, stores and returns a new
// one. build runs unlocked, so racing first uses may each build, but all of
// them return the value stored first.
func (b *Bounded[K, V]) Get(k K, build func() V) V {
	if v, ok := b.Load(k); ok {
		return v
	}
	nv := build()
	b.mu.Lock()
	defer b.mu.Unlock()
	if v, ok := b.m[k]; ok {
		return v
	}
	b.store(k, nv)
	return nv
}

// Load returns the value stored under k, if any.
func (b *Bounded[K, V]) Load(k K) (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[k]
	return v, ok
}

// Put stores v under k, replacing any value stored there. It suits values
// that are only worth keeping under a condition the caller checks, which
// Get's build cannot decline.
func (b *Bounded[K, V]) Put(k K, v V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store(k, v)
}

// store adds or replaces k's value, dropping every entry first when a new
// key would exceed the cap. b.mu must be held.
func (b *Bounded[K, V]) store(k K, v V) {
	if _, ok := b.m[k]; !ok && (b.m == nil || len(b.m) >= b.Cap) {
		b.m = make(map[K]V)
	}
	b.m[k] = v
}

// Len returns the number of entries held.
func (b *Bounded[K, V]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}
