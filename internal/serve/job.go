package serve

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/sample"
	"dmp/internal/sweep"
)

// JobSpec is one compile+simulate request. Exactly one of Preset or Source
// must be set: a preset job rebuilds a generated program (internal/gen) from
// (preset, seed) — fully reproducible, so identical specs hit the process
// simcache — while a source job ships DML text plus its input tapes.
type JobSpec struct {
	// Preset names a generator ProgramConf preset; Seed picks the program.
	Preset string `json:"preset,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	// Source is DML program text; Input is its input tape and Train the
	// profiling tape (defaults to Input). Name labels the job's result.
	Name   string  `json:"name,omitempty"`
	Source string  `json:"source,omitempty"`
	Input  []int64 `json:"input,omitempty"`
	Train  []int64 `json:"train,omitempty"`

	// Algo is the selection algorithm: heur (default), cost-long,
	// cost-edge, every, random50, highbp, immediate or ifelse.
	Algo string `json:"algo,omitempty"`
	// MaxInsts caps simulated instructions per run (0 = server default).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// Priority orders the queue: higher runs first, ties FIFO.
	Priority int `json:"priority,omitempty"`
	// Trace streams the job's pipeline events on /jobs/{id}/events.
	// Traced simulations bypass the simcache by design.
	Trace bool `json:"trace,omitempty"`
	// Sample, when present, runs the job's simulations through the SMARTS
	// sampled executor with this configuration (zero-valued fields take
	// the executor defaults; Enabled is implied by presence). The job's
	// reported IPCs are sampled estimates, memoized separately from
	// full-fidelity runs.
	Sample *sample.SampleConf `json:"sample,omitempty"`
	// Sweep turns the job into a bulk configuration-grid evaluation (see
	// SweepSpec). Mutually exclusive with Preset/Source/Trace; Algo,
	// MaxInsts, Priority and Sample apply to every cell.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// sampleConf returns the spec's effective sampling configuration: the
// disabled zero conf when the block is absent; otherwise the block enabled
// and normalized, so its zero fields take the executor defaults (and
// `"sample": {}` means "sampled at defaults" on the wire).
func (s *JobSpec) sampleConf() sample.SampleConf {
	if s.Sample == nil {
		return sample.SampleConf{}
	}
	c := *s.Sample
	c.Enabled = true
	return c.Normalize()
}

// Validate checks the spec shape without compiling anything.
func (s *JobSpec) Validate() error {
	if s.Sweep != nil {
		switch {
		case s.Preset != "" || s.Source != "":
			return fmt.Errorf("sweep is mutually exclusive with preset/source")
		case s.Trace:
			return fmt.Errorf("sweep jobs cannot stream events (trace)")
		}
		if err := s.Sweep.validate(); err != nil {
			return err
		}
		if s.Algo != "" {
			if err := core.CheckAlgorithm(s.Algo); err != nil {
				return err
			}
		}
		if s.Sample != nil {
			return s.sampleConf().Validate()
		}
		return nil
	}
	switch {
	case s.Preset == "" && s.Source == "":
		return fmt.Errorf("one of preset or source is required")
	case s.Preset != "" && s.Source != "":
		return fmt.Errorf("preset and source are mutually exclusive")
	case s.Preset != "":
		if _, ok := gen.Preset(s.Preset); !ok {
			return fmt.Errorf("unknown preset %q", s.Preset)
		}
	}
	if s.Algo != "" {
		if err := core.CheckAlgorithm(s.Algo); err != nil {
			return err
		}
	}
	if s.Sample != nil {
		if err := s.sampleConf().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID        string                 `json:"id"`
	State     string                 `json:"state"`
	Phase     string                 `json:"phase,omitempty"`
	Priority  int                    `json:"priority"`
	Submitted time.Time              `json:"submitted"`
	Started   *time.Time             `json:"started,omitempty"`
	Finished  *time.Time             `json:"finished,omitempty"`
	LatencyMS float64                `json:"latency_ms,omitempty"`
	Result    *harness.ProgramResult `json:"result,omitempty"`
	// Sweep carries a bulk job's full report (rows, marginals, best cells).
	Sweep *sweep.Report `json:"sweep,omitempty"`
	Error string        `json:"error,omitempty"`
}

// job is one queued/running/finished request.
type job struct {
	id   string
	seq  uint64 // FIFO tiebreak within a priority class
	spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc
	ev     *eventBuffer // nil unless spec.Trace

	mu        sync.Mutex
	state     string
	phase     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *harness.ProgramResult
	sweepRes  *sweep.Report
	err       string

	heapIdx int // index in the queue heap, -1 once popped
}

func (j *job) setPhase(p string) {
	j.mu.Lock()
	j.phase = p
	j.mu.Unlock()
}

// terminalState reports whether state is one a job never leaves.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// setState transitions the job; it reports false when the job already
// reached a terminal state (e.g. canceled while queued).
func (j *job) setState(state string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalState(j.state) {
		return false
	}
	j.state = state
	switch state {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCanceled:
		j.finished = time.Now()
	}
	return true
}

// finish moves the job to a terminal state, attaching the result or error in
// the same critical section, so a completion that loses the race with Cancel
// can never produce a canceled job carrying a result. It reports whether the
// transition happened and the job's submit-to-finish latency.
func (j *job) finish(state string, res *harness.ProgramResult, sw *sweep.Report, errMsg string) (bool, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalState(j.state) {
		return false, 0
	}
	j.state = state
	j.finished = time.Now()
	j.result = res
	j.sweepRes = sw
	j.err = errMsg
	if state == StateDone {
		j.phase = ""
	}
	return true, j.finished.Sub(j.submitted)
}

// terminal reports whether the job has reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state)
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Phase:     j.phase,
		Priority:  j.spec.Priority,
		Submitted: j.submitted,
		Result:    j.result,
		Sweep:     j.sweepRes,
		Error:     j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		st.LatencyMS = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}

// jobHeap orders queued jobs by priority (higher first), then submission
// order. It implements container/heap.Interface.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}

var _ heap.Interface = (*jobHeap)(nil)
