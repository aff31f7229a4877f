package emu

import (
	"math/rand"
	"testing"

	"dmp/internal/isa"
)

// TestSegmentedMemoryMatchesFlat drives the segmented data memory with random
// loads and stores and checks every outcome against a flat []int64 model of
// the same address space. The fast-vs-reference differential cannot catch a
// segment bug, because every engine shares load, store and grow; this test
// can. Addresses are drawn from the middle of the space, both edges of both
// segments, the last word and the out-of-range words -1 and size, until the
// segments meet.
func TestSegmentedMemoryMatchesFlat(t *testing.T) {
	p := &isa.Program{Code: []isa.Inst{{Op: isa.OpHalt}}, GlobalWords: 300}
	for _, memWords := range []int{4096, 0} { // 0 is the default space
		m := New(p, nil, memWords)
		size := int64(m.MemWords())
		flat := make([]int64, size)
		rng := rand.New(rand.NewSource(int64(size)))
		pick := func() int64 {
			lo, hiBase := int64(len(m.lo)), m.hiBase
			switch rng.Intn(8) {
			case 0:
				return size/2 + rng.Int63n(64) - 32
			case 1:
				return lo - 1 + rng.Int63n(3)
			case 2:
				return hiBase - 1 + rng.Int63n(3)
			case 3:
				return size - 1
			case 4:
				return -1
			case 5:
				return size
			default:
				return rng.Int63n(size)
			}
		}
		check := func(step int) {
			t.Helper()
			if lo, hi := int64(len(m.lo)), int64(len(m.hi)); lo > m.hiBase || m.hiBase+hi != size {
				t.Fatalf("size %d, step %d: segments lo [0,%d) hi [%d,%d+%d) do not tile the space", size, step, lo, m.hiBase, m.hiBase, hi)
			}
		}
		steps := 0
		exercise := func(n int) {
			for range n {
				steps++
				a := pick()
				inRange := a >= 0 && a < size
				if rng.Intn(2) == 0 {
					v := rng.Int63()
					if ok := m.store(a, v) || m.grow(a, v); ok != inRange {
						t.Fatalf("size %d, step %d: store %d ok=%v, want %v", size, steps, a, ok, inRange)
					}
					if inRange {
						flat[a] = v
					}
				} else {
					v, ok := m.load(a)
					want := int64(0)
					if inRange {
						want = flat[a]
					}
					if ok != inRange || v != want {
						t.Fatalf("size %d, step %d: load %d = %d ok=%v, want %d ok=%v", size, steps, a, v, ok, want, inRange)
					}
				}
				check(steps)
			}
		}
		verifyAll := func(what string) {
			t.Helper()
			for a := range size {
				if v, ok := m.load(a); !ok || v != flat[a] {
					t.Fatalf("size %d, %s: word %d = %d ok=%v, want %d", size, what, a, v, ok, flat[a])
				}
			}
		}

		exercise(20_000)
		verifyAll("after random traffic")
		if size <= 4096 {
			// Store to every word in random order until the segments meet.
			for _, a := range rng.Perm(int(size)) {
				v := rng.Int63()
				if !m.store(int64(a), v) && !m.grow(int64(a), v) {
					t.Fatalf("size %d: store %d rejected", size, a)
				}
				flat[a] = v
			}
			if got := int64(len(m.lo) + len(m.hi)); got != size {
				t.Fatalf("size %d: segments cover %d words after storing to all of them", size, got)
			}
			verifyAll("after the segments met")
		}
	}
}
