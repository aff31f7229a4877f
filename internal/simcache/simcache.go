// Package simcache memoizes cycle-level simulations. The paper's evaluation
// re-runs the same (program, input, config) triples many times — every
// figure re-simulates the baseline, and several figures share selection
// configurations — so the harness routes all simulations through a
// content-addressed cache: a stable SHA-256 key over the canonical program
// serialization (code + diverge annotations), the input tape, the machine
// configuration and the sampling configuration.
//
// Every simulation is one kind of memoized run: a sample.RunCells cell
// whose sample.Result is the entry. A full-fidelity run is the disabled-conf
// case, whose Result is exact (Result.Full), and a sampled run carries its
// estimate and error bar. Both take one path for one cell or many
// (RunSampledCtx, RunSampledCells), under one key derivation (KeyOfSampled),
// one wire codec and one on-disk namespace.
//
// The in-memory layer guarantees each distinct simulation executes exactly
// once per process: concurrent requests for the same key are deduplicated
// singleflight-style, with later arrivals blocking on the first runner. An
// optional on-disk layer (enabled by the DMP_CACHE_DIR environment variable)
// persists results across dmpbench/dmpsim invocations.
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
	"dmp/internal/sample"
)

// EnvDir names the environment variable that enables the on-disk layer.
const EnvDir = "DMP_CACHE_DIR"

// keySchema is folded into every key. It has two components: a hand-bumped
// generation for changes to the key derivation itself, and the reflection-
// derived fingerprint of the Stats wire shape (pipeline.StatsSchema), so that
// extending Stats automatically invalidates old entries — without it, stale
// DMP_CACHE_DIR entries written by an older binary would unmarshal with the
// new fields silently zero-valued.
var keySchema = "dmp-simcache-v2\x00" + pipeline.StatsSchema() + "\x00"

// sampledKeySchema versions the KeyOfSampled extension. Its generation moves
// when the estimator behind an unchanged key does: v2 marks purely
// functional warming, whose intervals start from a walk no detailed run
// touched, where v1 entries came from one chained pipeline stream. It also
// folds in sample.Schema() — the fingerprint of the Result wire shape — so
// extending Result invalidates stale entries the same way.
var sampledKeySchema = "dmp-simcache-sampled-v2\x00" + sample.Schema() + "\x00"

// diskNS is the subdirectory of the disk layer that holds the entries. It
// names the Result wire schema, so generations stay physically separate:
// stale-schema files are never picked up and are easy to garbage-collect by
// directory.
var diskNS = "sm-" + sample.Schema()

// Key identifies one simulation: a content hash of program, input, config
// and sampling conf.
type Key [sha256.Size]byte

// String returns the hexadecimal form of the key (the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// entry is one memoized run. ready is closed once val/err are final, so
// concurrent requesters of the same key can block on it.
type entry struct {
	ready chan struct{}
	val   sample.Result
	err   error
}

// Cache memoizes simulations. The zero value is not usable; construct with
// New or FromEnv. A nil *Cache is valid and simply runs every simulation.
type Cache struct {
	dir string // "" = memory-only

	// mem is the in-flight table. A key folds in the canonical sampling
	// conf, so an estimate never answers for an exact run.
	mu  sync.Mutex
	mem map[Key]*entry

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
	return &Cache{dir: dir, mem: map[Key]*entry{}, codeHash: memo.Bounded[*isa.Inst, [sha256.Size]byte]{Cap: 1024}}
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

// KeyOf hashes a (program, input, config) triple: the part of a key that
// KeyOfSampled extends with the sampling conf.
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

// KeyOfSampled derives the cache key of one simulation under a sampling
// conf: the KeyOf key of the underlying (program, input, config) triple,
// extended with the conf's canonical form. Two runs with equal canonical
// confs produce identical Results (interval placement is a pure function of
// instruction count and conf), which is what makes them memoizable at all.
// Every disabled conf is canonically the zero conf, so every full-fidelity
// request for a triple shares one key.
func (c *Cache) KeyOfSampled(prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) Key {
	base := c.KeyOf(prog, input, cfg)
	h := sha256.New()
	h.Write([]byte(sampledKeySchema))
	h.Write(base[:])
	h.Write(sc.AppendCanonical(nil))
	var k Key
	h.Sum(k[:0])
	return k
}

// RunSampledCtx returns the memoized sample.Result of one simulation under
// sc: the one-cell call of RunSampledCells. A disabled sc runs it exact, at
// full fidelity (Result.Full).
func (c *Cache) RunSampledCtx(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) (sample.Result, error) {
	rs, err := c.RunSampledCells(ctx, input, []sample.Cell{{Prog: prog, Cfg: cfg}}, sc)
	if err != nil {
		return sample.Result{}, err
	}
	return rs[0], nil
}

// RunSampledCells returns the memoized sample.Result of every cell on input
// under sc, in cell order, executing each distinct (program, input, config,
// canonical conf) at most once per process: the cache's one memoized-run
// path, for one cell or many. A nil cache degenerates to sample.RunCells.
//
// A call looks up and claims every cell's KeyOfSampled under one lock; a
// duplicate cell in the call is a hit on its first copy. It disk-loads the
// cells it claimed and runs the remaining misses, with the traced cells
// (Cfg.Tracer set), as one sample.RunCells call, so sampled cells share
// their warm walks; it stores each untraced result under its own key.
// Traced cells bypass memoization: a cached answer would silently emit no
// events, and the tracer is deliberately not part of the key.
//
// A failed or cancelled run memoizes nothing (a group's error cannot be
// pinned on one cell): every entry the call claimed is evicted before its
// waiters wake. Only then does the call wait on the cells other callers
// hold, claiming and rerunning under its own context any whose runner was
// cancelled, rather than inheriting the runner's error. A call never waits
// while it holds a claim, so calls over overlapping cells cannot deadlock.
func (c *Cache) RunSampledCells(ctx context.Context, input []int64, cells []sample.Cell, sc sample.SampleConf) (_ []sample.Result, err error) {
	if c == nil {
		return sample.RunCells(ctx, input, cells, sc)
	}
	n := len(cells)
	out := make([]sample.Result, n)
	keys := make([]Key, n)
	first := make([]int, n) // the first cell of the call with cell i's key
	seen := make(map[Key]int, n)
	var todo, runs []int
	for i, cell := range cells {
		first[i] = i
		if cell.Cfg.Tracer != nil {
			runs = append(runs, i)
			continue
		}
		keys[i] = c.KeyOfSampled(cell.Prog, input, cell.Cfg, sc)
		if j, ok := seen[keys[i]]; ok {
			first[i] = j
			continue
		}
		seen[keys[i]] = i
		todo = append(todo, i)
	}

	ent := make([]*entry, n)
	mine := make([]bool, n) // the call holds ent[i] claimed and unresolved
	resolve := func(i int, r sample.Result) {
		ent[i].val = r
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
			e, ok := c.mem[keys[i]]
			if !ok {
				e = &entry{ready: make(chan struct{})}
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
			if r, ok := c.load(keys[i]); ok {
				resolve(i, r)
			} else {
				runs = append(runs, i)
			}
		}
		if len(runs) > 0 {
			group := make([]sample.Cell, len(runs))
			for j, i := range runs {
				group[j] = cells[i]
			}
			start := time.Now()
			var rs []sample.Result
			if rs, err = sample.RunCells(ctx, input, group, sc); err != nil {
				if isCtxErr(err) {
					c.metrics.cancels.Add(1)
				}
				return nil, err
			}
			c.metrics.ran(sc, rs, time.Since(start))
			for j, i := range runs {
				if !mine[i] {
					c.metrics.bypasses.Add(1)
					out[i] = rs[j]
					continue
				}
				c.metrics.misses.Add(1)
				if c.dir != "" {
					if b, err := sample.MarshalResult(rs[j]); err == nil {
						c.writeDisk(keys[i], b)
					}
				}
				resolve(i, rs[j])
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

// isCtxErr reports whether err stems from a cancelled or expired context.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// isReady reports whether e's result is final.
func isReady(e *entry) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// load reads key's entry from the disk layer. A missing file, a stale
// schema or a corrupt entry reads as a miss.
func (c *Cache) load(key Key) (sample.Result, bool) {
	if c.dir == "" {
		return sample.Result{}, false
	}
	b, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		return sample.Result{}, false
	}
	r, err := sample.UnmarshalResult(b)
	if err != nil {
		return sample.Result{}, false
	}
	c.metrics.diskHits.Add(1)
	return r, true
}

// Metrics returns a snapshot of the cache counters.
func (c *Cache) Metrics() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return c.metrics.snapshot()
}

// diskPath places key's entry in the disk layer.
func (c *Cache) diskPath(key Key) string {
	return filepath.Join(c.dir, diskNS, key.String()+".json")
}

// writeDisk persists an entry best-effort: a read-only or missing directory
// never fails the simulation. The write is atomic (temp file + rename) so
// concurrent processes sharing a cache directory cannot observe torn
// entries.
func (c *Cache) writeDisk(key Key, b []byte) {
	dir := filepath.Join(c.dir, diskNS)
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
	if err := os.Rename(name, c.diskPath(key)); err != nil {
		os.Remove(name)
	}
}
