// Package simcache memoizes cycle-level simulations. The paper's evaluation
// re-runs pipeline.Run over the same (program, input, config) triples many
// times — every figure re-simulates the baseline, and several figures share
// selection configurations — so the harness routes all simulations through a
// content-addressed cache: a stable SHA-256 key over the canonical program
// serialization (code + diverge annotations), the input tape and the machine
// configuration.
//
// The in-memory layer guarantees each distinct simulation executes exactly
// once per process: concurrent requests for the same key are deduplicated
// singleflight-style, with later arrivals blocking on the first runner. An
// optional on-disk layer (enabled by the DMP_CACHE_DIR environment variable)
// persists results across dmpbench/dmpsim invocations.
//
// Full-fidelity runs (RunCtx, pipeline.Stats) and sampled runs
// (RunSampledCtx and RunSampledCells, sample.Result) take one memoized-run
// path for one cell or many; they differ only in their key space, wire
// codec, run function and metric.
//
// The cache also keeps run metrics — hits, misses, simulated cycles and
// aggregate simulation wall time — surfaced by the CLIs via -metrics-json
// and the evaluation summary footer.
package simcache

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dmp/internal/isa"
	"dmp/internal/memo"
	"dmp/internal/pipeline"
)

// EnvDir names the environment variable that enables the on-disk layer.
const EnvDir = "DMP_CACHE_DIR"

// keySchema is folded into every key. It has two components: a hand-bumped
// generation for changes to the key derivation itself, and the reflection-
// derived fingerprint of the Stats wire shape (pipeline.StatsSchema), so that
// extending Stats automatically invalidates old entries — without it, stale
// DMP_CACHE_DIR entries written by an older binary would unmarshal with the
// new fields silently zero-valued. The same fingerprint versions the on-disk
// layout (see fullRuns).
var keySchema = "dmp-simcache-v2\x00" + pipeline.StatsSchema() + "\x00"

// Key identifies one simulation: a content hash of program, input and config.
type Key [sha256.Size]byte

// String returns the hexadecimal form of the key (the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// entry is one memoized run. ready is closed once val/err are final, so
// concurrent requesters of the same key can block on it.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// kind is what one kind of memoized run supplies beyond its key and run
// function: its on-disk namespace, its wire codec and the metric an
// executed run adds.
type kind[V any] struct {
	// ns is the subdirectory of the disk layer holding this kind's
	// entries. It names the wire schema, so generations stay physically
	// separate: stale-schema files are never picked up and are easy to
	// garbage-collect by directory.
	ns        string
	marshal   func(V) ([]byte, error)
	unmarshal func([]byte) (V, error)
	count     func(*Metrics, V)
}

// fullRuns is the full-fidelity kind: Stats entries under s-<StatsSchema>.
var fullRuns = kind[pipeline.Stats]{
	ns:        "s-" + pipeline.StatsSchema(),
	marshal:   pipeline.MarshalStats,
	unmarshal: pipeline.UnmarshalStats,
	count: func(m *Metrics, st pipeline.Stats) {
		m.simCycles.Add(st.Cycles)
		m.simInsts.Add(st.Retired)
	},
}

// Cache memoizes pipeline runs. The zero value is not usable; construct with
// New or FromEnv. A nil *Cache is valid and simply runs every simulation.
type Cache struct {
	dir string // "" = memory-only

	// mem is the one in-flight table of both kinds. Their keys hash
	// different schema prefixes, so an estimate never answers for exact
	// stats, and a key's entry type always matches its kind.
	mu  sync.Mutex
	mem map[Key]any

	// codeHash memoizes the hash of an un-annotated program by code
	// identity (&Code[0]): harness workloads simulate the same baseline
	// binary many times. The cap bounds the dead programs a long-lived
	// daemon pins, at the order of predecode.Shared's.
	codeHash memo.Bounded[*isa.Inst, [sha256.Size]byte]

	metrics Metrics
}

// New returns a cache with an optional persistent directory (created on
// first store). An empty dir keeps the cache memory-only.
func New(dir string) *Cache {
	return &Cache{dir: dir, mem: map[Key]any{}, codeHash: memo.Bounded[*isa.Inst, [sha256.Size]byte]{Cap: 1024}}
}

// FromEnv returns a cache whose disk layer is controlled by DMP_CACHE_DIR.
func FromEnv() *Cache { return New(os.Getenv(EnvDir)) }

// Dir returns the persistent directory, or "" for a memory-only cache.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// progHash returns the content hash of the program including annotations.
func (c *Cache) progHash(p *isa.Program) [sha256.Size]byte {
	if len(p.Annots) == 0 && len(p.Code) > 0 {
		return c.codeHash.Get(&p.Code[0], p.Hash)
	}
	return p.Hash()
}

// KeyOf derives the cache key for one simulation.
func (c *Cache) KeyOf(prog *isa.Program, input []int64, cfg pipeline.Config) Key {
	h := sha256.New()
	h.Write([]byte(keySchema))
	ph := c.progHash(prog)
	h.Write(ph[:])
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(input)))
	h.Write(n[:])
	buf := make([]byte, 0, 8*len(input))
	for _, v := range input {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	h.Write(buf)
	h.Write(cfg.AppendCanonical(nil))
	var k Key
	h.Sum(k[:0])
	return k
}

// RunCtx returns the memoized statistics for the simulation, executing it
// at most once per process per distinct (program, input, config) triple: the
// one-cell call of the cache's memoized-run path (memoize). On a nil cache it
// degenerates to pipeline.RunCtx. Traced runs (cfg.Tracer != nil) bypass
// memoization entirely: a cached answer would silently emit no events, and
// the tracer is deliberately not part of the cache key. A run that fails or
// is cancelled is never memoized: it is evicted before its waiters wake, so
// the next request computes the result afresh, and a waiter deduplicating
// against a run cancelled by the *runner's* context retries with its own
// (live) context instead of inheriting the error.
func (c *Cache) RunCtx(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config) (pipeline.Stats, error) {
	return one(memoize(ctx, c, &fullRuns, 1,
		func(int) bool { return cfg.Tracer != nil },
		func(int) Key { return c.KeyOf(prog, input, cfg) },
		func(ctx context.Context, _ []int) ([]pipeline.Stats, error) {
			st, err := pipeline.RunCtx(ctx, prog, input, cfg)
			return []pipeline.Stats{st}, err
		}))
}

// one unwraps the result of a one-cell call.
func one[V any](vs []V, err error) (V, error) {
	if err != nil {
		var zero V
		return zero, err
	}
	return vs[0], nil
}

// isCtxErr reports whether err stems from a cancelled or expired context.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// memoize answers n cells of kind k, in cell order: the cache's one
// memoized-run path, for one cell or many. Cell i is memoized under key(i)
// unless traced(i), which bypasses memoization. run executes the cells at
// the indices it is given as one call and returns their results in that
// order. A nil cache runs every cell.
//
// A call looks up and claims every cell's key under one lock; a duplicate
// cell in the call is a hit on its first copy. It disk-loads the cells it
// claimed, runs the remaining misses with the traced cells, and stores each
// result under its own key. A failed or cancelled run memoizes nothing (a
// group's error cannot be pinned on one cell): every entry the call claimed
// is evicted before its waiters wake. Only then does the call wait on the
// cells other callers hold, claiming and rerunning under its own context any
// whose runner was cancelled. A call never waits while it holds a claim, so
// calls over overlapping cells cannot deadlock.
func memoize[V any](ctx context.Context, c *Cache, k *kind[V], n int, traced func(int) bool, key func(int) Key, run func(context.Context, []int) ([]V, error)) (_ []V, err error) {
	first := make([]int, n) // the first cell of the call with cell i's key
	for i := range first {
		first[i] = i
	}
	if c == nil {
		return run(ctx, first)
	}
	out := make([]V, n)
	keys := make([]Key, n)
	seen := make(map[Key]int, n)
	var todo, runs []int
	for i := range first {
		if traced(i) {
			runs = append(runs, i)
			continue
		}
		keys[i] = key(i)
		if j, ok := seen[keys[i]]; ok {
			first[i] = j
			continue
		}
		seen[keys[i]] = i
		todo = append(todo, i)
	}

	ent := make([]*entry[V], n)
	mine := make([]bool, n) // the call holds ent[i] claimed and unresolved
	resolve := func(i int, v V) {
		ent[i].val = v
		close(ent[i].ready)
		mine[i] = false
	}
	defer func() {
		// Whatever the call claimed and did not resolve is not a result:
		// evict it, then wake its waiters.
		c.mu.Lock()
		for i, m := range mine {
			if m {
				delete(c.mem, keys[i])
			}
		}
		c.mu.Unlock()
		for i, m := range mine {
			if m {
				ent[i].err = cmp.Or(err, errors.New("simcache: run abandoned"))
				close(ent[i].ready)
			}
		}
	}()

	for len(todo) > 0 || len(runs) > 0 {
		c.mu.Lock()
		for _, i := range todo {
			e, ok := c.mem[keys[i]].(*entry[V])
			if !ok {
				e = &entry[V]{ready: make(chan struct{})}
				c.mem[keys[i]] = e
				mine[i] = true
			} else if isReady(e) {
				c.metrics.hits.Add(1)
			} else {
				c.metrics.dedups.Add(1)
			}
			ent[i] = e
		}
		c.mu.Unlock()

		for _, i := range todo {
			if !mine[i] {
				continue
			}
			if v, ok := load(c, k, keys[i]); ok {
				resolve(i, v)
			} else {
				runs = append(runs, i)
			}
		}
		if len(runs) > 0 {
			start := time.Now()
			var vs []V
			vs, err = run(ctx, runs)
			c.metrics.simWallNS.Add(int64(time.Since(start)))
			if err != nil {
				if isCtxErr(err) {
					c.metrics.cancels.Add(1)
				}
				return nil, err
			}
			for j, i := range runs {
				k.count(&c.metrics, vs[j])
				if !mine[i] {
					c.metrics.bypasses.Add(1)
					out[i] = vs[j]
					continue
				}
				c.metrics.misses.Add(1)
				if c.dir != "" {
					if b, err := k.marshal(vs[j]); err == nil {
						c.writeDisk(k.ns, keys[i], b)
					}
				}
				resolve(i, vs[j])
			}
			runs = nil
		}

		// Wait on the cells other callers hold; the call's own are final.
		var retry []int
		for _, i := range todo {
			e := ent[i]
			if !isReady(e) {
				select {
				case <-e.ready:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			switch {
			case e.err == nil:
				out[i] = e.val
			case !isCtxErr(e.err):
				return nil, e.err
			case ctx.Err() != nil:
				return nil, ctx.Err()
			default:
				// The runner was cancelled and evicted the entry before
				// waking us; our context is live, so run it ourselves.
				retry = append(retry, i)
			}
		}
		todo = retry
	}
	for i, j := range first {
		if j != i {
			c.metrics.hits.Add(1)
			out[i] = out[j]
		}
	}
	return out, nil
}

// isReady reports whether e's result is final.
func isReady[V any](e *entry[V]) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// load reads key's entry of kind k from the disk layer. A missing file, a
// stale schema or a corrupt entry reads as a miss.
func load[V any](c *Cache, k *kind[V], key Key) (v V, ok bool) {
	if c.dir == "" {
		return v, false
	}
	b, err := os.ReadFile(c.diskPath(k.ns, key))
	if err == nil {
		v, err = k.unmarshal(b)
	}
	if err != nil {
		return v, false
	}
	c.metrics.diskHits.Add(1)
	return v, true
}

// Metrics returns a snapshot of the cache counters.
func (c *Cache) Metrics() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return c.metrics.snapshot()
}

// diskPath places key's entry in namespace ns of the disk layer.
func (c *Cache) diskPath(ns string, key Key) string {
	return filepath.Join(c.dir, ns, key.String()+".json")
}

// writeDisk persists an entry in namespace ns best-effort: a read-only or
// missing directory never fails the simulation. The write is atomic (temp
// file + rename) so concurrent processes sharing a cache directory cannot
// observe torn entries.
func (c *Cache) writeDisk(ns string, key Key, b []byte) {
	dir := filepath.Join(c.dir, ns)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.diskPath(ns, key)); err != nil {
		os.Remove(name)
	}
}
