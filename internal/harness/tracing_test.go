package harness

import (
	"reflect"
	"sync"
	"testing"

	"dmp/internal/core"
	"dmp/internal/pipeline"
	"dmp/internal/trace"
)

// tracingOpts returns a small sweep configuration with a shared tracer; the
// corpus and budget shrink under -race, where simulation is much slower.
func tracingOpts(tr trace.Tracer) Options {
	o := Options{
		Benchmarks:  []string{"mcf", "parser"},
		EvalOptions: EvalOptions{MaxInsts: 60_000, Tracer: tr},
	}
	if raceEnabled {
		o.MaxInsts = 30_000
	}
	return o
}

// A concurrent baseline+DMP sweep with a shared Collector attached: this is
// the harness-level race check (`go test -race` runs it with the detector
// on), and it pins the session-aggregate bookkeeping against the per-run
// statistics.
func TestConcurrentSweepWithTracing(t *testing.T) {
	col := trace.NewCollector()
	s, err := NewSession(tracingOpts(col))
	if err != nil {
		t.Fatal(err)
	}

	dmpStats := make([]pipeline.Stats, len(s.Workloads))
	var wg sync.WaitGroup
	for i, w := range s.Workloads {
		wg.Add(1)
		go func(i int, w *Workload) {
			defer wg.Done()
			if _, err := w.Baseline(); err != nil {
				t.Error(err)
				return
			}
			res, err := w.Select(core.HeuristicParams(), false)
			if err != nil {
				t.Error(err)
				return
			}
			st, err := w.RunDMP(res.Annots)
			if err != nil {
				t.Error(err)
				return
			}
			dmpStats[i] = st
		}(i, w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if col.Len() == 0 {
		t.Fatal("shared collector saw no events")
	}
	m := s.Metrics()
	if m.DMPRuns != uint64(len(s.Workloads)) {
		t.Errorf("DMPRuns = %d, want %d", m.DMPRuns, len(s.Workloads))
	}
	// The session aggregate must be exactly the sum of the per-run audits.
	var want trace.AuditTotals
	for _, st := range dmpStats {
		want.Add(st.Audit)
	}
	if m.Sessions != want {
		t.Errorf("session totals = %+v\nwant sum of per-run audits %+v", m.Sessions, want)
	}
	if m.Sessions.Entered == 0 {
		t.Error("sweep entered no dpred sessions")
	}
	// Every simulation of a traced session bypasses memoization.
	if c := s.Cache().Metrics(); c.Bypasses == 0 || c.Hits+c.DiskHits+c.Misses != 0 {
		t.Errorf("cache metrics = %+v, want pure bypasses", c)
	}
}

// Tracing is a pure observer: the same sweep without a tracer must produce
// identical statistics (this is what keeps the checked-in evaluation
// transcript valid regardless of tracing).
func TestTracingDoesNotChangeAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep is slow")
	}
	run := func(tr trace.Tracer) []pipeline.Stats {
		s, err := NewSession(tracingOpts(tr))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pipeline.Stats, len(s.Workloads))
		for i, w := range s.Workloads {
			res, err := w.Select(core.HeuristicParams(), false)
			if err != nil {
				t.Fatal(err)
			}
			if out[i], err = w.RunDMP(res.Annots); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	traced := run(trace.NewCollector())
	plain := run(nil)
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("tracing changed DMP aggregates:\ntraced %+v\nplain  %+v", traced, plain)
	}
}
