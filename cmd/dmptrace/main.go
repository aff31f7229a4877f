// Dmptrace summarizes a pipeline event stream captured with
// `dmpsim -trace-json` (or any JSON-lines stream in the internal/trace wire
// schema): an event-kind histogram, dpred-session outcome totals, and the
// top-N offending branches ranked by flushes and wasted dpred cycles — the
// same per-branch audit table the simulator folds into its Stats.
//
// Usage:
//
//	dmpsim -bench vpr -dmp -trace-json trace.jsonl
//	dmptrace trace.jsonl
//	dmptrace -n 20 trace.jsonl
//	dmpsim -bench vpr -dmp -trace-json - 2>/dev/null | dmptrace -json
//
// With no file argument (or "-") the stream is read from stdin. -json emits
// the summary as a single JSON object instead of text. -require-sessions
// exits non-zero when the stream holds no dpred sessions — a smoke-test
// guard that the tracing path stayed wired end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dmp/internal/stats"
	"dmp/internal/trace"
)

func main() {
	topN := flag.Int("n", 10, "rows in the per-branch audit table (0 = all)")
	asJSON := flag.Bool("json", false, "emit the summary as JSON")
	requireSessions := flag.Bool("require-sessions", false, "exit non-zero if the stream holds no dpred sessions")
	flag.Parse()

	if *topN < 0 {
		fmt.Fprintf(os.Stderr, "dmptrace: -n must be non-negative, got %d\n", *topN)
		flag.Usage()
		os.Exit(2)
	}
	in := io.Reader(os.Stdin)
	name := "stdin"
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "dmptrace: at most one trace file")
		os.Exit(2)
	}
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		check(err)
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}

	var (
		builder trace.AuditBuilder
		kinds   = map[string]uint64{}
		total   uint64
		span    struct{ first, last int64 }
	)
	rd := trace.NewReader(in)
	for {
		e, err := rd.Next()
		if err == io.EOF {
			break
		}
		check(err)
		if total == 0 {
			span.first = e.Cycle
		}
		span.last = e.Cycle
		total++
		kinds[e.Kind.String()]++
		builder.Add(e)
	}
	audits := builder.Build()
	totals := trace.Totals(audits)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			Events     uint64              `json:"events"`
			FirstCycle int64               `json:"first_cycle"`
			LastCycle  int64               `json:"last_cycle"`
			Kinds      map[string]uint64   `json:"kinds"`
			Totals     trace.AuditTotals   `json:"totals"`
			Branches   []trace.BranchAudit `json:"branches"`
		}{total, span.first, span.last, kinds, totals, stats.RankAudits(audits)}))
	} else {
		fmt.Printf("%s: %d events over cycles %d..%d\n", name, total, span.first, span.last)
		for _, k := range trace.Kinds() {
			if n := kinds[k.String()]; n > 0 {
				fmt.Printf("  %-20s %d\n", k, n)
			}
		}
		fmt.Println()
		sessions := totals.Merged + totals.Fallback + totals.FlushCancelled +
			totals.LoopEarlyExit + totals.LoopLateExit + totals.LoopNoExit + totals.LoopEnded
		fmt.Printf("sessions: %d entered, %d ended (%d merged, %d fell back, %d cancelled, %d loop early/%d late/%d no-exit/%d clean), %d throttled\n",
			totals.Entered, sessions, totals.Merged, totals.Fallback, totals.FlushCancelled,
			totals.LoopEarlyExit, totals.LoopLateExit, totals.LoopNoExit, totals.LoopEnded,
			totals.Throttled)
		fmt.Printf("flushes avoided %d, dpred cycles wasted %d\n\n", totals.SavedFlushes, totals.WastedCycles)
		stats.RenderAudits(os.Stdout, audits, *topN)
	}

	if *requireSessions && totals.Entered == 0 {
		fmt.Fprintln(os.Stderr, "dmptrace: no dpred sessions in stream")
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmptrace:", err)
		os.Exit(1)
	}
}
