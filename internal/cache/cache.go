// Package cache models the memory hierarchy of Table 1: a 64KB 2-way 2-cycle
// I-cache, a 64KB 4-way 2-cycle D-cache, a shared 1MB 8-way 10-cycle L2, and
// a 300-cycle-minimum main memory. Caches are set-associative with true LRU
// replacement and 64-byte lines.
//
// The model is a latency model: an access returns the number of cycles until
// the data is available, allocating lines along the way. Bandwidth and MSHR
// contention are not modelled (loads are non-blocking in the pipeline model;
// instruction fetch blocks on its own misses).
package cache

import (
	"fmt"

	"dmp/internal/undo"
)

// Config describes one cache level.
type Config struct {
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size (64 in Table 1).
	LineBytes int
	// HitCycles is the access latency on a hit.
	HitCycles int
}

// Table 1 configurations.
var (
	ICacheConfig = Config{Name: "L1I", SizeBytes: 64 << 10, Ways: 2, LineBytes: 64, HitCycles: 2}
	DCacheConfig = Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 4, LineBytes: 64, HitCycles: 2}
	L2Config     = Config{Name: "L2", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, HitCycles: 10}
)

// MemoryLatency is the minimum main-memory latency in cycles (Table 1:
// 300-cycle minimum plus a 40-cycle round-trip bus).
const MemoryLatency = 300 + 40

// Validate checks one level's geometry: positive sizes, a power-of-two set
// count (the index is a mask), and a power-of-two line size.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: sizes must be positive (size=%d ways=%d line=%d)",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.HitCycles <= 0 {
		return fmt.Errorf("cache %s: hit latency must be positive (got %d)", c.Name, c.HitCycles)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines < c.Ways {
		return fmt.Errorf("cache %s: %d lines < %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two (size=%d ways=%d line=%d)",
			c.Name, sets, c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Stats counts accesses per cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative level with LRU replacement.
type Cache struct {
	cfg     Config
	sets    int
	lineSh  uint
	setMask uint64
	// tags[set*ways : (set+1)*ways] holds one set's ways, most recently
	// used first. A way holds its line number plus one, and 0 marks it
	// invalid; a line number is the address shifted right by log2 of the
	// line size, so with lines of two bytes or more the increment cannot
	// wrap. Invalid ways are always at the end of their set.
	tags   []uint64
	stats  Stats
	next   *Cache // lower level, or nil for memory
	memLat int    // latency charged when next == nil
	// undo journals the ways of each set changed since Journal, and stats0
	// holds the statistics as they were then (see Rollback).
	undo   undo.Log[uint64]
	stats0 Stats
}

// New creates a cache level backed by next (nil means main memory at the
// Table 1 latency).
func New(cfg Config, next *Cache) *Cache {
	return NewMem(cfg, next, MemoryLatency)
}

// NewMem is New with an explicit main-memory latency, charged on a miss at
// the last level (next == nil). Machine-configuration sweeps use it to vary
// the memory system without touching the package defaults.
func NewMem(cfg Config, next *Cache, memLat int) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache: invalid config: %v", err))
	}
	if memLat <= 0 {
		memLat = MemoryLatency
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	lineSh := uint(0)
	for 1<<lineSh < cfg.LineBytes {
		lineSh++
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		lineSh:  lineSh,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, lines),
		next:    next,
		memLat:  memLat,
	}
}

// Stats returns the access statistics of this level.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Journal starts recording every change to c's contents and statistics,
// so that Rollback can undo them.
func (c *Cache) Journal() {
	c.undo.Start(len(c.tags))
	c.stats0 = c.stats
}

// Rollback restores c's contents and statistics as they were at Journal
// and stops recording.
func (c *Cache) Rollback() {
	c.undo.Rollback(c.tags)
	c.stats = c.stats0
}

// save journals the ways of addr's set before Access changes them.
func (c *Cache) save(addr uint64) {
	base := int(addr>>c.lineSh&c.setMask) * c.cfg.Ways
	for w := base; w < base+c.cfg.Ways; w++ {
		c.undo.Save(c.tags, w)
	}
}

// Access looks up the byte address and returns the total latency in cycles.
// Misses allocate in this level and recurse into the next level.
func (c *Cache) Access(addr uint64) int {
	c.stats.Accesses++
	tag, set := c.lookup(addr)
	if set[0] == tag {
		return c.cfg.HitCycles
	}
	for w := 1; w < len(set); w++ {
		if set[w] == tag {
			// Hit: move the way to the front.
			if c.undo.On() {
				c.save(addr)
			}
			copy(set[1:w+1], set[:w])
			set[0] = tag
			return c.cfg.HitCycles
		}
	}
	c.stats.Misses++
	lower := c.memLat
	if c.next != nil {
		lower = c.next.Access(addr)
	}
	// Allocate at the front; the last way (the LRU one, or an invalid one)
	// drops out.
	if c.undo.On() {
		c.save(addr)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	return c.cfg.HitCycles + lower
}

// Probe reports whether the address currently hits without touching LRU
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	tag, set := c.lookup(addr)
	for _, t := range set {
		if t == tag {
			return true
		}
	}
	return false
}

// lookup returns the address's tag (line number plus one) and its set's
// ways.
func (c *Cache) lookup(addr uint64) (uint64, []uint64) {
	line := addr >> c.lineSh
	base := int(line&c.setMask) * c.cfg.Ways
	return line + 1, c.tags[base : base+c.cfg.Ways : base+c.cfg.Ways]
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Hierarchy bundles the Table 1 memory system.
type Hierarchy struct {
	I  *Cache
	D  *Cache
	L2 *Cache
}

// HierarchyConfig describes a full memory system: three cache levels plus
// the main-memory latency behind the L2.
type HierarchyConfig struct {
	I, D, L2   Config
	MemLatency int
}

// DefaultHierarchyConfig returns the Table 1 memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{I: ICacheConfig, D: DCacheConfig, L2: L2Config, MemLatency: MemoryLatency}
}

// Validate checks every level's geometry.
func (hc HierarchyConfig) Validate() error {
	for _, c := range []Config{hc.I, hc.D, hc.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if hc.MemLatency <= 0 {
		return fmt.Errorf("cache: memory latency must be positive (got %d)", hc.MemLatency)
	}
	return nil
}

// NewHierarchy builds the Table 1 hierarchy.
func NewHierarchy() *Hierarchy {
	return NewHierarchyFrom(DefaultHierarchyConfig())
}

// NewHierarchyFrom builds a hierarchy with the given geometry.
func NewHierarchyFrom(hc HierarchyConfig) *Hierarchy {
	l2 := NewMem(hc.L2, nil, hc.MemLatency)
	return &Hierarchy{
		I:  NewMem(hc.I, l2, hc.MemLatency),
		D:  NewMem(hc.D, l2, hc.MemLatency),
		L2: l2,
	}
}

// Journal starts recording every level's changes (see Cache.Journal).
func (h *Hierarchy) Journal() {
	h.I.Journal()
	h.D.Journal()
	h.L2.Journal()
}

// Rollback undoes every level's changes since Journal.
func (h *Hierarchy) Rollback() {
	h.I.Rollback()
	h.D.Rollback()
	h.L2.Rollback()
}

// Retime sets each level's hit latency and the memory latency behind the L2
// from hc, leaving contents and geometry alone.
func (h *Hierarchy) Retime(hc HierarchyConfig) {
	h.I.cfg.HitCycles = hc.I.HitCycles
	h.D.cfg.HitCycles = hc.D.HitCycles
	h.L2.cfg.HitCycles = hc.L2.HitCycles
	h.I.memLat, h.D.memLat, h.L2.memLat = hc.MemLatency, hc.MemLatency, hc.MemLatency
}

// InstAddr converts an instruction address (one instruction per 8-byte word)
// to a byte address in the instruction space.
func InstAddr(pc int) uint64 { return uint64(pc) * 8 }

// DataAddr converts a word address in data memory to a byte address in a
// disjoint data space (high bit set) so code and data never alias in L2.
func DataAddr(word int64) uint64 { return uint64(word)*8 | 1<<40 }
