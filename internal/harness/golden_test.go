package harness

// Golden differential: beyond architectural transparency (differential_test.go),
// the simulator's Stats — including the per-branch session Audit — must be
// byte-identical to the goldens recorded at the seed commit for every
// benchmark × input set × {baseline, DMP} combination the differential test
// runs. This pins the cycle-level behaviour itself, so performance work on the
// hot loop (entry/checkpoint pooling, the bounded store-forwarding table)
// cannot silently change simulation results.
//
// Regenerate with:
//
//	go test -run TestPipelineMatchesEmulator ./internal/harness -update-golden
//
// The goldens are recorded from full (non-short) runs; in -short mode and
// under the race detector only the four-benchmark subset is checked.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"dmp/internal/pipeline"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json from the current simulator")

const goldenStatsPath = "testdata/golden_stats.json"

var golden struct {
	once sync.Once
	m    map[string]json.RawMessage
	err  error

	mu  sync.Mutex
	got map[string]json.RawMessage // collected when -update-golden is set
}

func goldenTable(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	golden.once.Do(func() {
		b, err := os.ReadFile(goldenStatsPath)
		if err != nil {
			golden.err = err
			return
		}
		golden.err = json.Unmarshal(b, &golden.m)
	})
	if golden.err != nil {
		t.Fatalf("golden stats unavailable (run with -update-golden to record): %v", golden.err)
	}
	return golden.m
}

// checkGolden asserts one simulation's Stats match the recorded golden
// byte-for-byte (in canonical json.Marshal form). With -update-golden it
// records instead of asserting; flushGoldens writes the collected table.
func checkGolden(t *testing.T, label string, st pipeline.Stats) {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("%s: marshal stats: %v", label, err)
	}
	if *updateGolden {
		golden.mu.Lock()
		if golden.got == nil {
			golden.got = map[string]json.RawMessage{}
		}
		golden.got[label] = b
		golden.mu.Unlock()
		return
	}
	want, ok := goldenTable(t)[label]
	if !ok {
		t.Errorf("%s: no recorded golden (regenerate with -update-golden)", label)
		return
	}
	if string(want) != string(b) {
		t.Errorf("%s: Stats diverge from the seed golden:\n got  %s\n want %s", label, b, want)
	}
}

// flushGoldens writes the collected golden table, sorted by label for stable
// diffs. No-op unless -update-golden was given.
func flushGoldens(t *testing.T) {
	t.Helper()
	if !*updateGolden {
		return
	}
	if testing.Short() {
		t.Fatal("-update-golden requires a full (non-short) run")
	}
	golden.mu.Lock()
	defer golden.mu.Unlock()
	labels := make([]string, 0, len(golden.got))
	for l := range golden.got {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, l := range labels {
		k, _ := json.Marshal(l)
		buf = append(buf, "  "...)
		buf = append(buf, k...)
		buf = append(buf, ": "...)
		buf = append(buf, golden.got[l]...)
		if i < len(labels)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenStatsPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d golden Stats to %s", len(labels), goldenStatsPath)
}
