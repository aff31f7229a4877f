package pipeline

import (
	"math/rand"
	"runtime"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/emu"
)

// fixedIssueRing is the issue-bandwidth ring as it was before it learned to
// grow: 256K entries with -1 tags, tracked up to 128K cycles ahead. It is the
// reference TestGrowableTablesMatchFixed holds the Sim's ring to.
type fixedIssueRing struct {
	tag [1 << 18]int64
	cnt [1 << 18]uint16
}

func newFixedIssueRing() *fixedIssueRing {
	r := new(fixedIssueRing)
	for i := range r.tag {
		r.tag[i] = -1
	}
	return r
}

func (r *fixedIssueRing) reserve(cycle, earliest int64, width int) int64 {
	const size = int64(len(r.tag))
	for c := earliest; ; c++ {
		if c-cycle > size/2 {
			return c
		}
		i := c & (size - 1)
		if r.tag[i] != c {
			r.tag[i] = c
			r.cnt[i] = 1
			return c
		}
		if int(r.cnt[i]) < width {
			r.cnt[i]++
			return c
		}
	}
}

// fixedStoreFwd is the 64K-slot direct-mapped store-forwarding table with -1
// tags that the growable table replaced.
type fixedStoreFwd struct {
	tag [1 << 16]int64
	cyc [1 << 16]int64
}

func newFixedStoreFwd() *fixedStoreFwd {
	f := new(fixedStoreFwd)
	for i := range f.tag {
		f.tag[i] = -1
	}
	return f
}

func (f *fixedStoreFwd) lookup(addr int64) (int64, bool) {
	i := addr & (int64(len(f.tag)) - 1)
	if f.tag[i] != addr {
		return 0, false
	}
	return f.cyc[i], true
}

func (f *fixedStoreFwd) store(addr, doneCyc int64) {
	i := addr & (int64(len(f.tag)) - 1)
	f.tag[i] = addr
	f.cyc[i] = doneCyc
}

// forwardedReady is the earliest issue cycle a load can get from a lookup:
// issue is floored at cycle+1, so a hit at or before it has no effect. This
// is what the two tables must agree on; a dead entry one table dropped and
// the other kept may differ in hit/miss but never here.
func forwardedReady(cycle, t int64, ok bool) int64 {
	if ok && t > cycle+1 {
		return t
	}
	return cycle + 1
}

// TestGrowableTablesMatchFixed drives a Sim's growable issue ring and
// store-forwarding table and the fixed-size references with one random
// sequence of cycle advances, issue reservations, stores and loads, and
// requires every issue cycle and every load's forwarded ready cycle to match.
//
// Each trial starts a fresh Sim and runs through phases that double the
// reservation frontier from the ring's starting length to the 128K-cycle
// horizon, so every ring size sees reservations just short of, at and just
// past its length while the near cycles are full (and the last phase reaches
// past the horizon). Store addresses collide modulo the table's current size
// but not modulo 64K, with a set that doubles with the phase, plus some that
// do collide modulo 64K (the full table's own conflicts). They are stored
// and loaded both while in flight and after they retire.
func TestGrowableTablesMatchFixed(t *testing.T) {
	p, _, _ := hammockProg(t, 1)
	const trials, phases, opsPerPhase = 8, 6, 1000
	for width := 1; width <= 8; width++ {
		cfg := DefaultConfig()
		cfg.IssueWidth = width
		for trial := 0; trial < trials; trial++ {
			s := New(p, nil, cfg)
			ring, fwd := newFixedIssueRing(), newFixedStoreFwd()
			rng := rand.New(rand.NewSource(int64(width*trials + trial)))
			addr := func(phase int) int64 {
				k := rng.Int63n(2 << phase)
				switch rng.Intn(64) {
				case 0:
					return rng.Int63n(1 << 22)
				case 1, 2, 3, 4, 5, 6, 7:
					return 99 + k*storeFwdSize
				}
				if rng.Intn(2) == 0 {
					return 777 + k*sfInitSize
				}
				return 4242 + k*4*sfInitSize
			}
			var cycle int64
			for op := 0; op < phases*opsPerPhase; op++ {
				phase := op / opsPerPhase
				// A reservation at cycle+1+d is d+1 cycles ahead.
				frontier := int64(issueInitSize) << phase
				switch r := rng.Intn(100); {
				case r < 20:
					cycle += 1 + int64(rng.Intn(2))
					if rng.Intn(500) == 0 {
						cycle += int64(rng.Intn(20_000))
					}
					s.cycle = cycle
				case r < 60:
					var d int64
					switch rng.Intn(10) {
					case 0, 1:
						d = frontier - 3 + int64(rng.Intn(5))
					case 2:
						d = rng.Int63n(frontier)
					default:
						d = int64(rng.Intn(4))
					}
					want := ring.reserve(cycle, cycle+1+d, width)
					got := s.findIssueSlot(cycle + 1 + d)
					if got < 0 {
						got = s.growIssue(cycle+1+d, -got)
					}
					if got != want {
						t.Fatalf("width %d, trial %d, op %d: reserve at cycle %d+1+%d = %d, want %d",
							width, trial, op, cycle, d, got, want)
					}
				case r < 80:
					a := addr(phase)
					done := cycle + 1 + int64(rng.Intn(4))
					if rng.Intn(3) == 0 {
						done += int64(rng.Intn(300))
					}
					fwd.store(a, done)
					if !s.sfStore(a, done) {
						s.growSF(a, done)
					}
				default:
					a := addr(phase)
					wt, wok := fwd.lookup(a)
					gt, gok := s.sfLookup(a)
					if got, want := forwardedReady(cycle, gt, gok), forwardedReady(cycle, wt, wok); got != want {
						t.Fatalf("width %d, trial %d, op %d: load of %d at cycle %d ready %d, want %d",
							width, trial, op, a, cycle, got, want)
					}
				}
			}
			if len(s.issueTag) == issueInitSize || len(s.sfTag) == sfInitSize {
				t.Fatalf("width %d, trial %d: tables never grew (ring %d, store-forward %d); the sequence misses the growth paths",
					width, trial, len(s.issueTag), len(s.sfTag))
			}
		}
	}
}

// TestSimAllocs pins the fixed cost of a simulation: building a Sim and
// running a short DMP simulation of a corpus program must allocate under
// 1 MiB. The issue ring and store-forwarding table start small and grow only
// when the run needs the room, instead of taking 3.5 MiB up front.
func TestSimAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not stable under -race")
	}
	const maxBytes = 1 << 20
	for _, name := range []string{"compress", "mcf"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		cfg := DefaultConfig()
		cfg.DMP = true
		cfg.MaxInsts = 20_000
		m := emu.New(prog, b.Input(bench.RunInput, 1), 0)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := NewFromMachine(m, cfg).Run(); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= maxBytes {
			t.Errorf("%s: NewFromMachine plus a %d-instruction run allocated %d bytes, want < %d",
				name, cfg.MaxInsts, got, maxBytes)
		}
	}
}
