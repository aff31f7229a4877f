package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"dmp/internal/sample"
)

// busySource is DML that halts after a long but bounded run: enough work
// that a sampled job spends real time in functional fast-forward, small
// enough to finish comfortably when left alone.
const busySource = `
var acc = 0;
var i = 0;
func main() {
	while (i < 120000) {
		if (i & 3) { acc = acc + i; } else { acc = acc - 1; }
		i = i + 1;
	}
	out(acc);
}
`

// TestSampledJob: a job carrying a sample block completes with sampled-
// estimate IPCs, and both the daemon's sampled-job count and the cache's
// sampled-simulation counter move.
func TestSampledJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Name: "busy", Source: busySource, Sample: &sample.SampleConf{}}
	st, resp := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitJob(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("sampled job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.BaseIPC <= 0 || final.Result.DMPIPC <= 0 {
		t.Fatalf("sampled job has no usable result: %+v", final.Result)
	}
	m := scrapeMetrics(t, ts.URL)
	if m.SampledJobs != 1 {
		t.Errorf("SampledJobs = %d, want 1", m.SampledJobs)
	}
	if m.Cache.Sampled == 0 {
		t.Error("cache reports no sampled simulations executed")
	}

	// An identical full-fidelity job must not be answered by the sampled
	// entries: key spaces are disjoint.
	full := JobSpec{Name: "busy", Source: busySource}
	st2, _ := postJob(t, ts.URL, full)
	if fin := waitJob(t, ts.URL, st2.ID); fin.State != StateDone {
		t.Fatalf("full job ended %s (%s)", fin.State, fin.Error)
	}
	m2 := scrapeMetrics(t, ts.URL)
	if m2.SampledJobs != 1 {
		t.Errorf("full job bumped SampledJobs to %d", m2.SampledJobs)
	}
	if m2.Cache.Misses <= m.Cache.Misses {
		t.Error("full-fidelity job after a sampled twin executed no new simulation")
	}
}

// TestSampledJobRejectsBadConf: a malformed sampling conf is rejected at
// submission, before any work is queued.
func TestSampledJobRejectsBadConf(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := JobSpec{Name: "busy", Source: busySource,
		Sample: &sample.SampleConf{Interval: 5000, Warmup: 5000, Period: 1000}}
	_, resp := postJob(t, ts.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sample conf: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestCancelSampledJobMidFastForward: DELETE interrupts a sampled job whose
// baseline simulation is fast-forwarding through an endless program. The
// unbounded spin source means only context cancellation — polled inside the
// sampled run's instruction-counting pass — can end the run.
func TestCancelSampledJobMidFastForward(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: 0})
	st, _ := postJob(t, ts.URL, JobSpec{Name: "spin", Source: spinSource, Sample: &sample.SampleConf{}})

	// The profile phase is bounded (popEmuBudget); wait until the job is
	// inside the baseline simulation, which for the spin program never ends.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur JobStatus
		if err := getJSON(context.Background(), http.DefaultClient, ts.URL+"/jobs/"+st.ID, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Phase == "baseline" {
			break
		}
		if terminalState(cur.State) {
			t.Fatalf("spin job reached %s (%s) before the baseline phase", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("spin job never reached the baseline phase")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the sampled run get genuinely into its counting pass.
	time.Sleep(50 * time.Millisecond)

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
		t.Errorf("cancellation mid-fast-forward took %v", wait)
	}
	if m := scrapeMetrics(t, ts.URL); m.SampledJobs != 0 {
		t.Errorf("canceled sampled job counted as completed: SampledJobs = %d", m.SampledJobs)
	}
}
