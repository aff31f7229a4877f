// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON daemon that accepts compile+simulate jobs, runs them on a
// bounded worker pool with backpressure and per-job priorities, shares one
// process-wide simulation cache across all requests, streams per-job
// pipeline events in the internal/trace JSON-lines format, and reports
// service-level metrics (jobs/s, latency percentiles, queue depth, cache
// hit rate, panics recovered) on /metrics.
//
// Endpoints:
//
//	POST   /jobs             submit a JobSpec; 202 + JobStatus, 400 for an
//	                         invalid spec or an unknown field, 429 when the
//	                         queue is full, 503 while draining
//	GET    /jobs             list job statuses (newest last)
//	GET    /jobs/{id}        one job's status, including its result
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /jobs/{id}/events stream the job's pipeline events (JSON lines;
//	                         requires "trace": true in the spec)
//	GET    /metrics          Metrics snapshot as JSON
//	GET    /healthz          liveness probe
//
// The job body reuses the population-evaluation path (harness.EvalSource /
// EvalGenerated): compile → profile → select → verify → simulate baseline
// and DMP, memoized by the shared simcache so duplicate specs across
// requests cost one simulation. A spec carrying a "sample" block runs its
// simulations through the SMARTS sampled executor instead (estimated IPCs
// with confidence intervals, memoized separately from full-fidelity runs);
// zero-valued fields in the block take the executor defaults, so
// "sample": {} means sampled-at-defaults. A spec carrying a "sweep" block is
// a bulk job instead: one submission evaluates a corpus (benchmark subset or
// generated presets) against a machine-configuration grid through the
// internal/sweep engine — config-invariant phases run once per program, cells
// share the daemon's simcache — and the job's status carries the full sweep
// report (rows, per-axis marginals, best cell per group).
// Every job runs under its own context —
// cancellation aborts mid-profile and mid-simulation at block-batch
// granularity — and every worker recovers panics into single-job failures:
// one broken workload can never take the daemon down. The daemon's memory
// is bounded: request bodies are capped (Config.MaxBodyBytes), every run
// phase including profiling honours the per-job instruction cap, and only
// the most recent Config.RetainJobs terminal jobs are retained — older ones
// are evicted and their IDs answer 404.
package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/simcache"
	"dmp/internal/sweep"
)

// DefaultMaxInsts caps per-run simulated instructions for jobs that do not
// set their own (generated programs terminate well below it; it backstops
// hostile or runaway source jobs).
const DefaultMaxInsts = 50_000_000

// DefaultRetainJobs is the default Config.RetainJobs: terminal jobs kept
// for status queries before the oldest are evicted.
const DefaultRetainJobs = 1024

// DefaultMaxBodyBytes is the default Config.MaxBodyBytes cap on a POST
// /jobs request body.
const DefaultMaxBodyBytes = 8 << 20

// Config configures a Server.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the queued (not yet running) jobs; submissions beyond
	// it are rejected with 429 (default 256).
	QueueCap int
	// Cache is the process-wide simulation cache (default simcache.FromEnv).
	Cache *simcache.Cache
	// MaxInsts is the per-run instruction cap applied to jobs that do not
	// set a smaller one (default DefaultMaxInsts).
	MaxInsts uint64
	// RetainJobs bounds the terminal (done/failed/canceled) jobs kept for
	// status queries: beyond it the oldest terminal jobs — specs, results
	// and event buffers — are evicted and their IDs answer 404 (default
	// DefaultRetainJobs). Queued and running jobs are never evicted.
	RetainJobs int
	// MaxBodyBytes caps a POST /jobs request body; larger submissions are
	// rejected with 413 before decoding (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Logf receives operational log lines (default: none).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Cache == nil {
		c.Cache = simcache.FromEnv()
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = DefaultMaxInsts
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = DefaultRetainJobs
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the job daemon. Create with New, start the workers with Start,
// mount Handler on an http.Server, and stop with Shutdown.
type Server struct {
	cfg Config

	baseCtx    context.Context
	forceAbort context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobHeap
	jobs     map[string]*job
	order    []*job
	seq      uint64
	draining bool
	running  int

	wg    sync.WaitGroup
	start time.Time

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	rejected  atomic.Uint64
	panics    atomic.Uint64
	// sampledDone counts completed jobs that ran under a sampling conf.
	sampledDone atomic.Uint64
	lat         latencyRecorder

	// exec runs one job body; tests swap it to exercise panic isolation
	// and slow-job draining without real simulations. execSweep is the bulk
	// counterpart for specs carrying a Sweep block.
	exec      func(ctx context.Context, spec JobSpec, opts harness.EvalOptions) (harness.ProgramResult, error)
	execSweep func(ctx context.Context, spec JobSpec, opts harness.EvalOptions) (*sweep.Report, error)
}

// New creates a Server (workers not yet started).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), jobs: map[string]*job{}, start: time.Now()}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.forceAbort = context.WithCancel(context.Background())
	s.exec = s.defaultExec
	s.execSweep = s.defaultExecSweep
	return s
}

// Cache returns the server's shared simulation cache.
func (s *Server) Cache() *simcache.Cache { return s.cfg.Cache }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
	s.cfg.Logf("serve: %d workers, queue cap %d, cache dir %q",
		s.cfg.Workers, s.cfg.QueueCap, s.cfg.Cache.Dir())
}

// Shutdown drains the daemon: new submissions are rejected immediately,
// queued and running jobs are completed, and the worker pool exits. If ctx
// ends before the drain completes, in-flight jobs are force-cancelled.
// It returns the number of jobs drained after the drain began.
func (s *Server) Shutdown(ctx context.Context) int {
	s.mu.Lock()
	s.draining = true
	pending := s.queue.Len() + s.running
	s.mu.Unlock()
	s.cond.Broadcast()
	s.cfg.Logf("serve: draining %d in-flight job(s)", pending)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cfg.Logf("serve: drain deadline exceeded; force-cancelling")
		s.forceAbort()
		<-done
	}
	s.cfg.Logf("serve: drained %d job(s)", pending)
	return pending
}

// Submit validates and enqueues a job spec. It returns the job, or an
// httpError carrying the status code to reply with (429 on a full queue,
// 503 while draining).
func (s *Server) Submit(spec JobSpec) (*job, error) {
	if err := spec.Validate(); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, &httpError{http.StatusServiceUnavailable, "draining: no new jobs accepted"}
	}
	if s.queue.Len() >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, &httpError{http.StatusTooManyRequests, "queue full"}
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.seq),
		seq:       s.seq,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	if spec.Trace {
		j.ev = newEventBuffer()
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	heap.Push(&s.queue, j)
	s.mu.Unlock()
	s.submitted.Add(1)
	s.cond.Signal()
	return j, nil
}

// Cancel cancels a job by ID: queued jobs are removed from the queue,
// running jobs have their context cancelled (the simulation aborts at the
// next block-batch boundary). It reports whether the job was found.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if j.heapIdx >= 0 {
		heap.Remove(&s.queue, j.heapIdx)
	}
	s.mu.Unlock()
	j.cancel()
	if j.setState(StateCanceled) {
		s.canceled.Add(1)
		if j.ev != nil {
			j.ev.CloseBuffer()
		}
		s.evictTerminal()
	}
	return true
}

// worker pops jobs until the queue drains during shutdown.
func (s *Server) worker() {
	for {
		j := s.pop()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// pop blocks for the next runnable job; nil means the daemon is draining
// and the queue is empty.
func (s *Server) pop() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*job)
			if !j.setState(StateRunning) {
				continue // canceled while queued
			}
			s.running++
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one job with panic isolation: a panic anywhere in the job
// body fails that job alone and the worker keeps serving. Terminal
// transitions go through job.finish so the result is attached atomically
// with the state — a concurrent Cancel either wins (canceled, no result) or
// loses (done, result), never a mix.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			if ok, _ := j.finish(StateFailed, nil, nil, fmt.Sprintf("worker panic: %v", r)); ok {
				s.failed.Add(1)
			}
			s.cfg.Logf("serve: %s: recovered worker panic: %v", j.id, r)
		}
		if j.ev != nil {
			j.ev.CloseBuffer()
		}
		j.cancel()
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.evictTerminal()
	}()

	opts := harness.EvalOptions{
		Cache:    s.cfg.Cache,
		MaxInsts: s.effectiveMaxInsts(j.spec.MaxInsts),
		Progress: j.setPhase,
		Sample:   j.spec.sampleConf(),
	}
	if j.ev != nil {
		opts.Tracer = j.ev
	}

	var res harness.ProgramResult
	var rep *sweep.Report
	var err error
	if j.spec.Sweep != nil {
		rep, err = s.execSweep(j.ctx, j.spec, opts)
	} else {
		res, err = s.exec(j.ctx, j.spec, opts)
	}
	switch {
	case err != nil && j.ctx.Err() != nil:
		if ok, _ := j.finish(StateCanceled, nil, nil, err.Error()); ok {
			s.canceled.Add(1)
		}
	case err != nil:
		if ok, _ := j.finish(StateFailed, nil, nil, err.Error()); ok {
			s.failed.Add(1)
		}
	case rep != nil:
		ok, lat := j.finish(StateDone, nil, rep, "")
		if !ok {
			return // canceled concurrently; Cancel already counted it
		}
		s.completed.Add(1)
		if j.spec.Sample != nil {
			s.sampledDone.Add(1)
		}
		s.lat.record(lat)
		s.cfg.Logf("serve: %s done: sweep %d programs x %d cells, %d rows",
			j.id, len(rep.Programs), rep.Cells, len(rep.Rows))
	default:
		ok, lat := j.finish(StateDone, &res, nil, "")
		if !ok {
			return // canceled concurrently; Cancel already counted it
		}
		s.completed.Add(1)
		if j.spec.Sample != nil {
			s.sampledDone.Add(1)
		}
		s.lat.record(lat)
		s.cfg.Logf("serve: %s done: %s %+.2f%% (base %.3f, dmp %.3f IPC)",
			j.id, res.Name, res.DeltaPct, res.BaseIPC, res.DMPIPC)
	}
}

// evictTerminal drops the oldest terminal jobs beyond cfg.RetainJobs, so a
// long-running daemon's job table — specs, results and event buffers — stays
// bounded by retained + queued + running instead of growing with every job
// ever submitted. Runs after each terminal transition.
func (s *Server) evictTerminal() {
	s.mu.Lock()
	terminal := 0
	for _, j := range s.order {
		if j.terminal() {
			terminal++
		}
	}
	var evicted []*job
	if drop := terminal - s.cfg.RetainJobs; drop > 0 {
		kept := s.order[:0]
		for _, j := range s.order {
			if drop > 0 && j.terminal() {
				delete(s.jobs, j.id)
				evicted = append(evicted, j)
				drop--
				continue
			}
			kept = append(kept, j)
		}
		for i := len(kept); i < len(s.order); i++ {
			s.order[i] = nil
		}
		s.order = kept
	}
	s.mu.Unlock()
	// Close outside s.mu: followers of an evicted traced job drain what they
	// have and stop, releasing the buffer.
	for _, j := range evicted {
		if j.ev != nil {
			j.ev.CloseBuffer()
		}
	}
}

func (s *Server) effectiveMaxInsts(req uint64) uint64 {
	if req == 0 || req > s.cfg.MaxInsts {
		return s.cfg.MaxInsts
	}
	return req
}

// defaultExec resolves the spec into a program and evaluates it.
func (s *Server) defaultExec(ctx context.Context, spec JobSpec, opts harness.EvalOptions) (harness.ProgramResult, error) {
	if spec.Preset != "" {
		conf, ok := gen.Preset(spec.Preset)
		if !ok {
			return harness.ProgramResult{}, fmt.Errorf("unknown preset %q", spec.Preset)
		}
		return harness.EvalGenerated(ctx, gen.Build(conf, spec.Seed), spec.Algo, opts)
	}
	name := spec.Name
	if name == "" {
		name = "source-job"
	}
	return harness.EvalSource(ctx, name, spec.Source, spec.Input, spec.Train, spec.Algo, opts)
}

// Metrics snapshots the service-level indicators.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	depth := s.queue.Len()
	running := s.running
	draining := s.draining
	s.mu.Unlock()
	up := time.Since(s.start).Seconds()
	m := Metrics{
		UptimeSec:       up,
		Workers:         s.cfg.Workers,
		QueueCap:        s.cfg.QueueCap,
		Draining:        draining,
		QueueDepth:      depth,
		Running:         running,
		Submitted:       s.submitted.Load(),
		Completed:       s.completed.Load(),
		Failed:          s.failed.Load(),
		Canceled:        s.canceled.Load(),
		Rejected:        s.rejected.Load(),
		PanicsRecovered: s.panics.Load(),
		SampledJobs:     s.sampledDone.Load(),
		Cache:           s.cfg.Cache.Metrics(),
	}
	if up > 0 {
		m.JobsPerSec = float64(m.Completed) / up
	}
	m.LatencyP50MS, m.LatencyP90MS, m.LatencyP99MS = s.lat.percentiles()
	m.CacheHitRate = m.Cache.HitRate()
	return m
}

// httpError carries an HTTP status code through the submit path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		code = he.code
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// Unknown fields are rejected rather than ignored: a misspelt or retired
	// option would otherwise silently run a different job than the client
	// asked for.
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeErr(w, &httpError{http.StatusBadRequest, "bad job spec: " + err.Error()})
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, &httpError{http.StatusNotFound, "no such job"})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.Cancel(j.id)
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's pipeline events as JSON lines, following
// the simulation live until the job finishes or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.ev == nil {
		writeErr(w, &httpError{http.StatusConflict, "job was not submitted with \"trace\": true"})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, done := j.ev.next(r.Context(), off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off += len(chunk)
		}
		if done {
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": draining})
}
