package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmp/internal/harness"
	"dmp/internal/simcache"
)

// newTestServer boots a started Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = simcache.New("")
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, base string, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func waitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := pollJob(ctx, http.DefaultClient, base, id, time.Millisecond)
	if err != nil {
		t.Fatalf("job %s never finished: %v", id, err)
	}
	return st
}

func scrapeMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	var m Metrics
	if err := getJSON(context.Background(), http.DefaultClient, base+"/metrics", &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSubmitAndComplete: a preset job round-trips to done with a result.
func TestSubmitAndComplete(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, resp := postJob(t, ts.URL, JobSpec{Preset: "deep-hammock", Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh job state = %q, want queued", st.State)
	}
	final := waitJob(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %q (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.BaseIPC <= 0 || final.Result.DMPIPC <= 0 {
		t.Fatalf("done job has no usable result: %+v", final.Result)
	}
	if final.LatencyMS <= 0 {
		t.Error("done job reports zero latency")
	}
}

// TestDuplicateSpecHitsCache: an identical spec re-submitted must be served
// from the shared simcache.
func TestDuplicateSpecHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Preset: "deep-hammock", Seed: 7}
	first, _ := postJob(t, ts.URL, spec)
	if st := waitJob(t, ts.URL, first.ID); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	base := scrapeMetrics(t, ts.URL).Cache
	second, _ := postJob(t, ts.URL, spec)
	if st := waitJob(t, ts.URL, second.ID); st.State != StateDone {
		t.Fatalf("second job: %s (%s)", st.State, st.Error)
	}
	m := scrapeMetrics(t, ts.URL)
	if gained := m.Cache.Hits - base.Hits; gained == 0 {
		t.Errorf("duplicate spec produced no cache hits (before %d, after %d)", base.Hits, m.Cache.Hits)
	}
	if m.CacheHitRate <= 0 {
		t.Errorf("CacheHitRate = %v, want > 0", m.CacheHitRate)
	}
}

// blockingExec returns an exec hook whose jobs block until release is
// closed (or their context ends).
func blockingExec(started chan<- string) (exec func(context.Context, JobSpec, harness.EvalOptions) (harness.ProgramResult, error), release func()) {
	ch := make(chan struct{})
	var once sync.Once
	return func(ctx context.Context, spec JobSpec, _ harness.EvalOptions) (harness.ProgramResult, error) {
			if started != nil {
				started <- spec.Name
			}
			select {
			case <-ch:
				return harness.ProgramResult{Name: spec.Name, BaseIPC: 1, DMPIPC: 1}, nil
			case <-ctx.Done():
				return harness.ProgramResult{}, ctx.Err()
			}
		}, func() {
			once.Do(func() { close(ch) })
		}
}

// TestQueueFullBackpressure: with one worker and a one-slot queue, the third
// concurrent submission is rejected with 429 and counted.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan string, 8)
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	exec, release := blockingExec(started)
	defer release()
	s.exec = exec

	running, _ := postJob(t, ts.URL, JobSpec{Source: "func main() {}", Name: "running"})
	<-started // worker picked it up; queue is empty again
	queued, _ := postJob(t, ts.URL, JobSpec{Source: "func main() {}", Name: "queued"})
	_, resp := postJob(t, ts.URL, JobSpec{Source: "func main() {}", Name: "rejected"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp.StatusCode)
	}
	if m := scrapeMetrics(t, ts.URL); m.Rejected != 1 || m.QueueDepth != 1 {
		t.Errorf("metrics after backpressure: rejected=%d depth=%d, want 1/1", m.Rejected, m.QueueDepth)
	}
	release()
	for _, id := range []string{running.ID, queued.ID} {
		if st := waitJob(t, ts.URL, id); st.State != StateDone {
			t.Errorf("job %s ended %s, want done", id, st.State)
		}
	}
}

// TestPriorityOrdersQueue: queued jobs run highest-priority first, FIFO
// within a class.
func TestPriorityOrdersQueue(t *testing.T) {
	started := make(chan string, 8)
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 16})
	exec, release := blockingExec(started)
	defer release()
	s.exec = exec

	postJob(t, ts.URL, JobSpec{Source: "x", Name: "gate"})
	<-started // occupy the only worker so the rest queue up
	postJob(t, ts.URL, JobSpec{Source: "x", Name: "low-a", Priority: 0})
	postJob(t, ts.URL, JobSpec{Source: "x", Name: "high", Priority: 5})
	postJob(t, ts.URL, JobSpec{Source: "x", Name: "low-b", Priority: 0})
	release()
	var order []string
	for i := 0; i < 3; i++ {
		order = append(order, <-started)
	}
	if want := []string{"high", "low-a", "low-b"}; !equalStrings(order, want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPanicIsolation: a panicking job body fails exactly that job; the
// worker survives and keeps serving, and the panic is counted.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.exec = func(ctx context.Context, spec JobSpec, opts harness.EvalOptions) (harness.ProgramResult, error) {
		if spec.Name == "bomb" {
			panic("deliberate workload panic")
		}
		return s.defaultExec(ctx, spec, opts)
	}

	bomb, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "bomb"})
	if st := waitJob(t, ts.URL, bomb.ID); st.State != StateFailed ||
		!strings.Contains(st.Error, "deliberate workload panic") {
		t.Fatalf("bomb job = %q (%q), want failed with panic message", st.State, st.Error)
	}
	// The same (sole) worker must still serve real jobs.
	ok, _ := postJob(t, ts.URL, JobSpec{Preset: "deep-hammock", Seed: 3})
	if st := waitJob(t, ts.URL, ok.ID); st.State != StateDone {
		t.Fatalf("job after panic ended %s (%s), want done", st.State, st.Error)
	}
	m := scrapeMetrics(t, ts.URL)
	if m.PanicsRecovered != 1 || m.Failed != 1 || m.Completed != 1 {
		t.Errorf("metrics = panics:%d failed:%d completed:%d, want 1/1/1",
			m.PanicsRecovered, m.Failed, m.Completed)
	}
}

// TestCancelQueuedAndRunning: DELETE cancels a queued job without running
// it, and aborts a running job via its context.
func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	exec, release := blockingExec(started)
	defer release()
	s.exec = exec

	running, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "running"})
	<-started
	queued, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "queued"})

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: HTTP %d", id, resp.StatusCode)
		}
	}
	if st := waitJob(t, ts.URL, queued.ID); st.State != StateCanceled {
		t.Errorf("queued job ended %s, want canceled", st.State)
	}
	if st := waitJob(t, ts.URL, running.ID); st.State != StateCanceled {
		t.Errorf("running job ended %s, want canceled", st.State)
	}
	select {
	case name := <-started:
		t.Errorf("canceled queued job %q still ran", name)
	case <-time.After(50 * time.Millisecond):
	}
	if m := scrapeMetrics(t, ts.URL); m.Canceled != 2 {
		t.Errorf("Canceled = %d, want 2", m.Canceled)
	}
}

// TestShutdownDrains: draining completes queued work, rejects new
// submissions with 503, and Shutdown returns once the pool is idle.
func TestShutdownDrains(t *testing.T) {
	started := make(chan string, 8)
	cache := simcache.New("")
	s := New(Config{Workers: 1, QueueCap: 8, Cache: cache})
	exec, release := blockingExec(started)
	s.exec = exec
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "a"})
	<-started
	b, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "b"})

	shutdownDone := make(chan int, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining: new work must be turned away immediately. A submission that
	// lands before the Shutdown goroutine has started draining is accepted,
	// and is drained like the others.
	var late []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, resp := postJob(t, ts.URL, JobSpec{Source: "x", Name: "late"})
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode == http.StatusAccepted {
			late = append(late, st.ID)
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: HTTP %d, want 503", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	release()
	select {
	case n := <-shutdownDone:
		if n != 2+len(late) {
			t.Errorf("Shutdown drained %d jobs, want %d", n, 2+len(late))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	for _, id := range append([]string{a.ID, b.ID}, late...) {
		if st := waitJob(t, ts.URL, id); st.State != StateDone {
			t.Errorf("drained job %s ended %s, want done", id, st.State)
		}
	}
}

// TestEventsStream: a traced job streams its pipeline events as JSON lines
// on /jobs/{id}/events, ending when the job finishes.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts.URL, JobSpec{Preset: "deep-hammock", Seed: 9, Trace: true})

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("event line %d is not valid JSON: %q", lines, sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("traced job streamed zero events")
	}
	if final := waitJob(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("traced job ended %s (%s), want done", final.State, final.Error)
	}
}

// TestValidateRejectsBadSpecs: malformed specs answer 400 before touching
// the queue.
func TestValidateRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []JobSpec{
		{},                                    // neither preset nor source
		{Preset: "deep-hammock", Source: "x"}, // both
		{Preset: "no-such-preset"},            // unknown preset
		{Preset: "deep-hammock", Algo: "no-algo"}, // unknown algorithm
	}
	for i, spec := range bad {
		_, resp := postJob(t, ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d: HTTP %d, want 400", i, resp.StatusCode)
		}
	}
	if m := scrapeMetrics(t, ts.URL); m.Submitted != 0 {
		t.Errorf("bad specs were enqueued: submitted = %d", m.Submitted)
	}
}

// TestSubmitRejectsUnknownFields: a spec carrying a field the daemon does
// not know — here the retired sampling knobs — answers 400 naming the field
// instead of running a different job than the client asked for.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for field, body := range map[string]string{
		"shards":    `{"preset":"deep-hammock","seed":1,"sample":{"shards":4}}`,
		"warm_lead": `{"preset":"deep-hammock","seed":1,"sample":{"warm_lead":50000}}`,
		"colour":    `{"preset":"deep-hammock","seed":1,"colour":"red"}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", field, resp.StatusCode)
		}
		if !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: error %q does not name the field", field, e.Error)
		}
	}
	if m := scrapeMetrics(t, ts.URL); m.Submitted != 0 {
		t.Errorf("specs with unknown fields were enqueued: submitted = %d", m.Submitted)
	}
}

// TestSourceJob: a DML source job compiles, profiles on its train tape and
// reports a result under the requested algorithm.
func TestSourceJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := `
var acc = 0;
func main() {
	while (inavail()) {
		var v = in();
		if (v & 1) { acc = acc + v; } else { acc = acc - 1; }
	}
	out(acc);
}
`
	input := make([]int64, 2000)
	for i := range input {
		input[i] = int64(i * 7 % 13)
	}
	st, resp := postJob(t, ts.URL, JobSpec{Name: "acc", Source: src, Input: input, Algo: "cost-edge"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitJob(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("source job ended %s (%s)", final.State, final.Error)
	}
	if final.Result.Name != "acc" || final.Result.BaseIPC <= 0 {
		t.Fatalf("source job result: %+v", final.Result)
	}
}

// TestListJobs: GET /jobs reflects every submission.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		st, _ := postJob(t, ts.URL, JobSpec{Preset: "deep-hammock", Seed: uint64(i)})
		ids[st.ID] = true
	}
	var list []JobStatus
	if err := getJSON(context.Background(), http.DefaultClient, ts.URL+"/jobs", &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for _, st := range list {
		if !ids[st.ID] {
			t.Errorf("unexpected job in list: %s", st.ID)
		}
	}
	for id := range ids {
		waitJob(t, ts.URL, id)
	}
}

// spinSource is DML that never halts: x stays 0, so the loop condition
// never fails. Regression shape for the profile-phase DoS: before the
// profiling run was bounded and context-aware, one such job hung a daemon
// worker permanently.
const spinSource = `
var x = 0;
func main() {
	while (x < 1) {
		x = x * 1;
	}
}
`

// TestSpinSourceJobBounded: a source job whose program never halts on its
// train tape is truncated by the server's instruction cap in every phase —
// including profiling — and still completes.
func TestSpinSourceJobBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: 200_000})
	st, resp := postJob(t, ts.URL, JobSpec{Name: "spin", Source: spinSource})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitJob(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("spin job ended %s (%s), want done (truncated)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Retired == 0 {
		t.Fatalf("truncated spin job has no result: %+v", final.Result)
	}
}

// TestCancelDuringProfile: DELETE interrupts a job stuck in the profiling
// phase. The huge instruction cap makes the spin job's profile run
// effectively endless, so only context cancellation can end it.
func TestCancelDuringProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: 1 << 60})
	st, _ := postJob(t, ts.URL, JobSpec{Name: "spin", Source: spinSource})

	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobStatus
		if err := getJSON(context.Background(), http.DefaultClient, ts.URL+"/jobs/"+st.ID, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Phase == "profile" {
			break
		}
		if terminalState(cur.State) {
			t.Fatalf("spin job reached %s before profiling", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("spin job never reached the profile phase")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	start := time.Now()
	final := waitJob(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("spin job ended %s, want canceled", final.State)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Errorf("cancellation during profile took %v", wait)
	}
}

// TestCancelWinsOverLateResult: a job body that completes after the job was
// canceled must not flip the state back to done or attach its result — the
// terminal transition is atomic with the result.
func TestCancelWinsOverLateResult(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1})
	s.exec = func(ctx context.Context, spec JobSpec, _ harness.EvalOptions) (harness.ProgramResult, error) {
		started <- spec.Name
		<-release // ignore ctx: a body that completes despite cancellation
		return harness.ProgramResult{Name: spec.Name, BaseIPC: 1, DMPIPC: 1}, nil
	}

	st, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "late"})
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := waitJob(t, ts.URL, st.ID); final.State != StateCanceled {
		t.Fatalf("job ended %s, want canceled", final.State)
	}

	close(release) // the body now returns a success the job must ignore
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := scrapeMetrics(t, ts.URL); m.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never finished the canceled job body")
		}
		time.Sleep(time.Millisecond)
	}
	again := waitJob(t, ts.URL, st.ID)
	if again.State != StateCanceled || again.Result != nil {
		t.Errorf("after late completion: state %s result %+v, want canceled with no result",
			again.State, again.Result)
	}
	if m := scrapeMetrics(t, ts.URL); m.Canceled != 1 || m.Completed != 0 {
		t.Errorf("metrics = canceled:%d completed:%d, want 1/0", m.Canceled, m.Completed)
	}
}

// TestTerminalJobEviction: finished jobs beyond RetainJobs are evicted from
// the job table — the list stays bounded and evicted IDs answer 404.
func TestTerminalJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RetainJobs: 2})
	s.exec = func(_ context.Context, spec JobSpec, _ harness.EvalOptions) (harness.ProgramResult, error) {
		return harness.ProgramResult{Name: spec.Name, BaseIPC: 1, DMPIPC: 1}, nil
	}

	var ids []string
	for i := 0; i < 5; i++ {
		st, _ := postJob(t, ts.URL, JobSpec{Source: "x", Name: "evict"})
		waitJob(t, ts.URL, st.ID)
		ids = append(ids, st.ID)
	}

	// Eviction runs on the worker after the terminal transition; poll
	// briefly for the table to settle at the retention cap.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var list []JobStatus
		if err := getJSON(context.Background(), http.DefaultClient, ts.URL+"/jobs", &list); err != nil {
			t.Fatal(err)
		}
		if len(list) == 2 {
			if list[0].ID != ids[3] || list[1].ID != ids[4] {
				t.Fatalf("retained jobs = %s,%s, want the two newest %s,%s",
					list[0].ID, list[1].ID, ids[3], ids[4])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job table never settled at RetainJobs=2 (still %d jobs)", len(list))
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job answers HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSubmitBodyLimit: an oversized POST /jobs body is rejected with 413
// before it is decoded or buffered whole.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024})
	big := JobSpec{Name: "big", Source: "x", Input: make([]int64, 4096)}
	_, resp := postJob(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: HTTP %d, want 413", resp.StatusCode)
	}
	if m := scrapeMetrics(t, ts.URL); m.Submitted != 0 {
		t.Errorf("oversized body was enqueued: submitted = %d", m.Submitted)
	}
}

// TestConcurrentJobs: 24 HTTP jobs of 5 specs from 8 goroutines all finish, and duplicates hit the cache.
func TestConcurrentJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make(chan error, 24)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 24; i += 8 {
				body, _ := json.Marshal(JobSpec{Preset: "deep-hammock", Seed: uint64(i % 5)})
				var st JobStatus
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err == nil {
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
				}
				if err == nil {
					st, err = pollJob(ctx, http.DefaultClient, ts.URL, st.ID, time.Millisecond)
				}
				if err == nil && st.State != StateDone {
					err = fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if m := s.Metrics(); m.Completed != 24 || m.Cache.Hits+m.Cache.Dedups == 0 {
		t.Errorf("completed %d of 24 jobs, %d cache hits, %d dedups", m.Completed, m.Cache.Hits, m.Cache.Dedups)
	}
}

// pollJob polls a job's status until it reaches a terminal state.
func pollJob(ctx context.Context, client *http.Client, baseURL, id string, every time.Duration) (JobStatus, error) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		var st JobStatus
		if err := getJSON(ctx, client, baseURL+"/jobs/"+id, &st); err != nil {
			return JobStatus{}, err
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
