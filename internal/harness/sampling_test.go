package harness

import (
	"context"
	"strings"
	"testing"

	"dmp/internal/gen"
	"dmp/internal/sample"
	"dmp/internal/simcache"
)

// TestSampleErrorGate is the sample-error differential gate: every corpus
// benchmark simulated at full fidelity and sampled (baseline and DMP) must
// land inside the sampled run's stated confidence interval, and so must a
// generated population. A miss here means the SMARTS executor's error bars
// lie — the one property that makes sampled evaluations usable. The
// population must hold rows that really sampled: a population of exact
// fallbacks compares exact runs with themselves.
func TestSampleErrorGate(t *testing.T) {
	benches := []string{"gzip", "mcf", "vortex", "twolf", "perlbmk", "compress"}
	if !testing.Short() {
		benches = nil // full 17-benchmark corpus
	}
	s, err := NewSession(Options{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	tbl, rep, err := SampleError(s, sample.DefaultConf())
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || len(rep.Rows) != 2*len(s.Workloads) {
		t.Fatalf("expected %d rows, got %d", 2*len(s.Workloads), len(rep.Rows))
	}
	for _, m := range rep.Misses {
		t.Errorf("corpus: %s outside its confidence interval", m)
	}

	n := 40
	progs := gen.BuildCorpus(gen.Presets(), n, 1)
	prep, err := SampleErrorPopulation(context.Background(), progs, sample.DefaultConf(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Rows) != n {
		t.Fatalf("population rows = %d, want %d", len(prep.Rows), n)
	}
	for _, m := range prep.Misses {
		t.Errorf("population: %s outside its confidence interval", m)
	}
	if prep.Sampled() == 0 {
		t.Errorf("population: all %d rows are exact fallbacks; no sampled estimate was checked", n)
	}
}

// TestSampledSessionStats: a session in sampled mode produces Stats
// projections whose IPCs track the full-fidelity session within the sampled
// error bars, and surfaces the sampling block in its metrics.
func TestSampledSessionStats(t *testing.T) {
	benches := []string{"gzip", "twolf"}
	full, err := NewSession(Options{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	sc := sample.DefaultConf()
	samp, err := NewSession(Options{Benchmarks: benches, EvalOptions: EvalOptions{Sample: sc}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Workloads {
		fb, err := full.Workloads[i].Baseline()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := samp.Workloads[i].Baseline()
		if err != nil {
			t.Fatal(err)
		}
		if sb.Retired != fb.Retired {
			t.Errorf("%s: sampled projection retired %d, full %d", benches[i], sb.Retired, fb.Retired)
		}
		if sb.IPC() <= 0 {
			t.Errorf("%s: sampled projection IPC = %v", benches[i], sb.IPC())
		}
	}
	m := samp.Metrics()
	if m.Sampling == nil {
		t.Fatal("sampled session metrics missing the sampling block")
	}
	if m.Sampling.Runs != uint64(len(benches)) {
		t.Errorf("sampling runs = %d, want %d", m.Sampling.Runs, len(benches))
	}
	if pct := m.Sampling.DetailedPct(); pct <= 0 || pct >= 50 {
		t.Errorf("detailed share = %.2f%%, want (0, 50)", pct)
	}
	if fm := full.Metrics(); fm.Sampling != nil {
		t.Error("full-fidelity session must not report a sampling block")
	}
}

// TestSampledFooterLine: the metrics footer includes the sampling line with
// the detailed share and error-bar summary, and the sampled wall time in
// place of the full-fidelity rates, since no exact instruction ran.
func TestSampledFooterLine(t *testing.T) {
	s, err := NewSession(Options{Benchmarks: []string{"gzip"}, EvalOptions: EvalOptions{Sample: sample.DefaultConf()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Workloads[0].Baseline(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.Metrics().Footer(&sb)
	out := sb.String()
	for _, want := range []string{"sampling", "sampled\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("footer missing %q:\n%s", want, out)
		}
	}
	for _, zero := range []string{"simulated cycles/s", "simulated KI/s", "per simulated KI"} {
		if strings.Contains(out, zero) {
			t.Errorf("footer prints a zero rate %q for a wholly sampled session:\n%s", zero, out)
		}
	}
}

// TestSampledEvalSource: EvalOptions.Sample routes the single-program
// evaluation through the sampled executor and still produces a usable
// ProgramResult.
func TestSampledEvalSource(t *testing.T) {
	progs := gen.BuildCorpus(gen.Presets(), 4, 1)
	cache := simcache.New("")
	for _, p := range progs {
		r, err := EvalGenerated(context.Background(), p, "heur",
			EvalOptions{Cache: cache, Sample: sample.DefaultConf()})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if r.BaseIPC <= 0 || r.DMPIPC <= 0 {
			t.Errorf("%s: IPCs %v / %v", p.Name, r.BaseIPC, r.DMPIPC)
		}
	}
	if m := cache.Metrics(); m.Sampled == 0 {
		t.Error("sampled evaluations did not report the Sampled metric")
	}
}

// TestSampledRunsShareNothingWithFull: a sampled run and a full run of the
// same workload in one cache must produce two distinct executions (key
// separation end to end through the session path).
func TestSampledRunsShareNothingWithFull(t *testing.T) {
	cache := simcache.New("")
	base := Options{Benchmarks: []string{"compress"}, EvalOptions: EvalOptions{Cache: cache}}
	full, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Workloads[0].Baseline(); err != nil {
		t.Fatal(err)
	}
	sampOpts := base
	sampOpts.Sample = sample.DefaultConf()
	samp, err := NewSession(sampOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := samp.Workloads[0].Baseline(); err != nil {
		t.Fatal(err)
	}
	m := cache.Metrics()
	if m.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one full, one sampled)", m.Misses)
	}
	if m.Hits != 0 {
		t.Errorf("hits = %d, want 0 — a sampled estimate answered a full request or vice versa", m.Hits)
	}
}
