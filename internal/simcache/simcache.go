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
// Full-fidelity runs (Run, pipeline.Stats) and sampled runs (RunSampled,
// sample.Result) take one memoized-run path; they differ only in their key
// space, wire codec, run function and metric.
//
// The cache also keeps run metrics — hits, misses, simulated cycles and
// aggregate simulation wall time — surfaced by the CLIs via -metrics-json
// and the evaluation summary footer.
package simcache

import (
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

// Run returns the memoized statistics for the simulation, executing it at
// most once per process per distinct (program, input, config) triple. On a
// nil cache it degenerates to pipeline.Run. Traced runs (cfg.Tracer != nil)
// bypass memoization entirely: a cached answer would silently emit no
// events, and the tracer is deliberately not part of the cache key.
func (c *Cache) Run(prog *isa.Program, input []int64, cfg pipeline.Config) (pipeline.Stats, error) {
	return c.RunCtx(context.Background(), prog, input, cfg)
}

// RunCtx is Run under a cancellation context. Cancellation never poisons the
// cache: a run aborted by its context is evicted before its waiters wake, so
// the next request for the same key computes the result afresh, and a waiter
// deduplicating against a run that was cancelled by the *runner's* context
// retries with its own (live) context instead of inheriting the error.
func (c *Cache) RunCtx(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config) (pipeline.Stats, error) {
	return memoized(ctx, c, &fullRuns, cfg.Tracer != nil,
		func() Key { return c.KeyOf(prog, input, cfg) },
		func(ctx context.Context) (pipeline.Stats, error) { return pipeline.RunCtx(ctx, prog, input, cfg) })
}

// isCtxErr reports whether err stems from a cancelled or expired context.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// memoized runs one simulation of kind k through the cache. A nil cache
// just runs it, and a traced run bypasses memoization; any other run
// executes at most once per process per key, concurrent requests waiting on
// the first.
func memoized[V any](ctx context.Context, c *Cache, k *kind[V], traced bool, key func() Key, run func(context.Context) (V, error)) (V, error) {
	if c == nil {
		return run(ctx)
	}
	if traced {
		c.metrics.bypasses.Add(1)
		v, err := timed(ctx, c, run)
		if err == nil {
			k.count(&c.metrics, v)
		}
		return v, err
	}
	kk := key()
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.mem[kk].(*entry[V]); ok {
			c.mu.Unlock()
			select {
			case <-e.ready:
				c.metrics.hits.Add(1)
			default:
				// Another goroutine is running this exact simulation; wait
				// for it — or for our own context, whichever ends first.
				c.metrics.dedups.Add(1)
				select {
				case <-e.ready:
				case <-ctx.Done():
					return zero, ctx.Err()
				}
			}
			if e.err != nil && isCtxErr(e.err) {
				// The runner was cancelled (and evicted the entry before
				// closing ready). Our context may still be live: retry.
				if err := ctx.Err(); err != nil {
					return zero, err
				}
				continue
			}
			return e.val, e.err
		}
		e := &entry[V]{ready: make(chan struct{})}
		c.mem[kk] = e
		c.mu.Unlock()
		return compute(ctx, c, k, kk, e, run)
	}
}

// compute executes (or disk-loads) the run for a freshly inserted in-flight
// entry, publishing the result to waiters when it returns.
func compute[V any](ctx context.Context, c *Cache, k *kind[V], key Key, e *entry[V], run func(context.Context) (V, error)) (V, error) {
	defer close(e.ready)

	if v, ok := load(c, k, key); ok {
		e.val = v
		return v, nil
	}

	e.val, e.err = timed(ctx, c, run)
	if e.err != nil && isCtxErr(e.err) {
		// Evict before the deferred close wakes any waiters: a cancelled
		// run is not a result, and must not be memoized.
		c.metrics.cancels.Add(1)
		c.evict(key)
		return e.val, e.err
	}
	c.metrics.misses.Add(1)
	if e.err == nil {
		store(c, k, key, e.val)
	}
	return e.val, e.err
}

// load reads key's entry of kind k from the disk layer. A missing file, a
// stale schema or a corrupt entry reads as a miss.
func load[V any](c *Cache, k *kind[V], key Key) (V, bool) {
	var zero V
	b, ok := c.readDisk(k.ns, key)
	if !ok {
		return zero, false
	}
	v, err := k.unmarshal(b)
	if err != nil {
		return zero, false
	}
	c.metrics.diskHits.Add(1)
	return v, true
}

// store counts an executed run of kind k and persists it under key when the
// disk layer is on.
func store[V any](c *Cache, k *kind[V], key Key, v V) {
	k.count(&c.metrics, v)
	if c.dir == "" {
		return
	}
	if b, err := k.marshal(v); err == nil {
		c.writeDisk(k.ns, key, b)
	}
}

// evict drops key's in-flight entry, so the next request runs afresh.
func (c *Cache) evict(key Key) {
	c.mu.Lock()
	delete(c.mem, key)
	c.mu.Unlock()
}

// timed executes run, adding its wall time to the simulation wall metric.
func timed[V any](ctx context.Context, c *Cache, run func(context.Context) (V, error)) (V, error) {
	start := time.Now()
	v, err := run(ctx)
	c.metrics.simWallNS.Add(int64(time.Since(start)))
	return v, err
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

// readDisk returns the stored bytes of key's entry in namespace ns; any
// failure, a missing file included, reads as a miss.
func (c *Cache) readDisk(ns string, key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.diskPath(ns, key))
	return b, err == nil
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
