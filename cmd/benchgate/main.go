// Command benchgate turns `go test -bench` output into a committed JSON
// snapshot and gates simulator-throughput regressions against it.
//
// It parses standard benchmark lines (including -benchmem columns and custom
// metrics such as sim-insts/s), folds repeated -count runs into one result
// per benchmark (best throughput, fewest allocations — the least-noisy
// estimate of the code's capability), writes the snapshot, and fails when
// any benchmark shared with the baseline drops throughput by more than
// -max-regress percent or grows allocs/op beyond -max-alloc-growth percent.
// Each comparison line also shows bytes/op before and after; bytes/op is
// displayed, not gated.
// Passing -update rewrites the snapshot and skips the gate, for deliberate
// baseline refreshes after a perf-relevant change.
//
// Typical use (see scripts/bench_compare.sh):
//
//	go test -run '^$' -bench ... -benchmem -count 3 ./... > bench.txt
//	git show HEAD:BENCH_PR9.json > baseline.json
//	benchgate -in bench.txt -baseline baseline.json -out BENCH_PR9.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark's folded measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom benchmark metrics keyed by unit (e.g. "sim-insts/s").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// throughput returns the benchmark's ops-per-second figure used for gating:
// the custom sim-insts/s metric when the benchmark reports one, otherwise
// the reciprocal of ns/op.
func (r Result) throughput() float64 {
	if v, ok := r.Extra["sim-insts/s"]; ok && v > 0 {
		return v
	}
	if r.NsPerOp <= 0 {
		return 0
	}
	return 1e9 / r.NsPerOp
}

// File is the on-disk snapshot format (BENCH_PR9.json).
type File struct {
	// Note documents the file's provenance for human readers.
	Note string `json:"note,omitempty"`
	// Seed preserves the measurements taken at the commit before the
	// zero-allocation work, for the before/after comparison; it is carried
	// forward verbatim from the baseline file.
	Seed map[string]Result `json:"seed,omitempty"`
	// Benchmarks holds the current measurements.
	Benchmarks map[string]Result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+\d+\s+(.*)$`)

// stripProcs removes the trailing -GOMAXPROCS suffix go test appends.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse folds benchmark output into one Result per benchmark name.
func parse(in *os.File) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchgate: odd metric fields in %q", sc.Text())
		}
		r, seen := out[name]
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value in %q: %v", sc.Text(), err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if !seen || v < r.NsPerOp {
					r.NsPerOp = v
				}
			case "B/op":
				if !seen || v < r.BytesPerOp {
					r.BytesPerOp = v
				}
			case "allocs/op":
				if !seen || v < r.AllocsPerOp {
					r.AllocsPerOp = v
				}
			default:
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				if old, ok := r.Extra[unit]; !ok || v > old {
					r.Extra[unit] = v
				}
			}
		}
		out[name] = r
	}
	return out, sc.Err()
}

func readFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(b, &f)
}

func main() {
	in := flag.String("in", "-", "benchmark output to parse ('-' = stdin)")
	baseline := flag.String("baseline", "", "baseline snapshot to gate against (optional)")
	out := flag.String("out", "", "snapshot file to write (optional)")
	maxRegress := flag.Float64("max-regress", 15, "max allowed throughput drop, percent")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 25, "max allowed allocs/op growth, percent (0 disables)")
	update := flag.Bool("update", false, "rewrite the snapshot from the measurements and skip the gate")
	flag.Parse()

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	cur, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("benchgate: no benchmark lines in input"))
	}

	var base File
	if *baseline != "" {
		base, err = readFile(*baseline)
		if err != nil {
			fatal(fmt.Errorf("benchgate: reading baseline: %w", err))
		}
	}

	if *out != "" {
		snap := File{
			Note:       "Simulator throughput snapshot; regenerate with `make bench-compare`. `seed` holds the pre-optimisation measurements.",
			Seed:       base.Seed,
			Benchmarks: cur,
		}
		if snap.Seed == nil {
			// Carry the before-numbers forward from the previous snapshot
			// even when no committed baseline is available.
			if prev, err := readFile(*out); err == nil {
				snap.Seed = prev.Seed
			}
		}
		if snap.Seed == nil {
			snap.Seed = cur
		}
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if *update {
		// The snapshot above is the new baseline; nothing to gate against.
		fmt.Printf("benchgate: snapshot updated (%d benchmarks), gate skipped (-update)\n", len(cur))
		return
	}

	failed := false
	for name, b := range base.Benchmarks {
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: %s: in baseline but not measured; skipping\n", name)
			continue
		}
		bt, ct := b.throughput(), c.throughput()
		if bt <= 0 {
			continue
		}
		delta := 100 * (ct - bt) / bt
		status := "ok"
		if delta < -*maxRegress {
			status = "FAIL"
			failed = true
		}
		// Allocation creep in the hot loop erodes throughput gradually, so
		// gate allocs/op alongside raw speed. A small absolute slack keeps
		// benchmarks with near-zero counts from tripping on one allocation.
		allocStatus := ""
		if *maxAllocGrowth > 0 && b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp {
			growth := 100 * (c.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
			if growth > *maxAllocGrowth && c.AllocsPerOp-b.AllocsPerOp > 8 {
				allocStatus = " ALLOC-FAIL"
				failed = true
			}
		}
		fmt.Printf("%-40s throughput %12.0f -> %12.0f ops/s (%+.1f%%, limit -%.0f%%) allocs/op %.0f -> %.0f B/op %.0f -> %.0f [%s%s]\n",
			name, bt, ct, delta, *maxRegress, b.AllocsPerOp, c.AllocsPerOp, b.BytesPerOp, c.BytesPerOp, status, allocStatus)
	}
	if failed {
		fatal(fmt.Errorf("benchgate: regression beyond limits (throughput -%.0f%%, allocs/op +%.0f%%)", *maxRegress, *maxAllocGrowth))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
