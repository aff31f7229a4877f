// Dmpsweep runs a parallel machine-configuration sweep: a corpus of programs
// (hand-written benchmarks or generated presets) evaluated against the
// cartesian grid of one or more -axis overrides of pipeline.Config.
//
// Usage:
//
//	dmpsweep -axis Field=v1,v2[,...] [-axis ...]
//	         [-bench gzip,mcf,... | -gen-preset all|P,Q -gen-n N -gen-seed S]
//	         [-scale N] [-max N] [-p N] [-algo heur|...]
//	         [-sample] [-sample-period N] [-sample-interval N]
//	         [-sample-warmup N] [-sample-seed S]
//	         [-out sweep.csv] [-json report.json] [-list-fields] [-q]
//
// The perf core is phase-level artifact reuse: per program, the
// config-invariant phases (compile → profile → select → verify) run once and
// only the simulate phase fans out per grid cell, memoized through
// internal/simcache (DMP_CACHE_DIR enables the cross-invocation disk layer).
// -out streams one CSV row per completed cell and is resumable: re-running
// with the same grid appends only the missing cells, and a cancelled sweep
// leaves a well-formed partial file. -sample routes cell simulations
// through the SMARTS sampled executor for large grids. The reuse-free
// baseline the speedup is measured against is a shell loop of one-cell
// invocations with DMP_CACHE_DIR unset (EXPERIMENTS.md, "Configuration
// sweeps").
//
// Example (Section-7-style sensitivity table):
//
//	dmpsweep -axis ROBSize=128,256,512,1024 -axis DMP=false,true -out rob.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmp/internal/gen"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/sweep"
)

func main() {
	var axisFlags multiFlag
	flag.Var(&axisFlags, "axis", "swept axis as Field=v1,v2,... (repeatable; see -list-fields)")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all 17 unless -gen-preset)")
	scale := flag.Int("scale", 1, "benchmark input scale factor")
	genPreset := flag.String("gen-preset", "", "evaluate a generated corpus: preset name, comma-separated list, or \"all\"")
	genN := flag.Int("gen-n", 50, "generated corpus size")
	genSeed := flag.Uint64("gen-seed", 1, "generated corpus base seed")
	algo := flag.String("algo", "heur", "selection algorithm annotating each program")
	maxInsts := flag.Uint64("max", 0, "cap simulated instructions per cell (0 = full)")
	par := flag.Int("p", 0, "parallel simulations (0 = GOMAXPROCS)")
	sampled := flag.Bool("sample", false, "run cells through the SMARTS sampled executor")
	sampPeriod := flag.Uint64("sample-period", 0, "sampling period in instructions (0 = default)")
	sampInterval := flag.Uint64("sample-interval", 0, "detailed measurement interval length (0 = default)")
	sampWarmup := flag.Uint64("sample-warmup", 0, "detailed warmup length before each interval (0 = default)")
	sampSeed := flag.Uint64("sample-seed", 0, "stratified placement seed (0 = default)")
	outPath := flag.String("out", "", "stream CSV rows to this file (appends and resumes if it exists)")
	jsonPath := flag.String("json", "", "write the full JSON report to this file (\"-\" = stdout)")
	listFields := flag.Bool("list-fields", false, "print the sweepable Config field paths and exit")
	quiet := flag.Bool("q", false, "suppress per-cell progress on stderr")
	flag.Parse()

	if *listFields {
		fmt.Println(strings.Join(sweep.FieldPaths(), "\n"))
		return
	}

	grid := &sweep.GridSpec{}
	for _, s := range axisFlags {
		ax, err := sweep.ParseAxis(s)
		check(err)
		grid.Axes = append(grid.Axes, ax)
	}
	check(grid.Validate())

	var progs []sweep.Program
	var err error
	if *genPreset != "" {
		confs, err := gen.ResolvePresets(strings.Split(*genPreset, ","))
		check(err)
		progs = sweep.FromGen(gen.BuildCorpus(confs, *genN, *genSeed))
	} else {
		var names []string
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		progs, err = sweep.FromBench(names, *scale)
		check(err)
	}

	sc := sample.SampleConf{
		Enabled:  true,
		Period:   *sampPeriod,
		Interval: *sampInterval,
		Warmup:   *sampWarmup,
		Seed:     *sampSeed,
	}.Normalize()
	check(sc.Validate())

	opts := sweep.Options{
		Parallelism: *par,
		Algo:        *algo,
		MaxInsts:    *maxInsts,
		Cache:       simcache.FromEnv(),
	}
	if *sampled {
		opts.Sample = sc
	}

	if *outPath != "" {
		done, err := sweep.ReadDoneFile(*outPath, grid.Axes)
		check(err)
		if len(done) > 0 {
			fmt.Fprintf(os.Stderr, "dmpsweep: resuming %s: %d cells already done\n", *outPath, len(done))
			opts.Skip = done.Contains
		}
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		check(err)
		defer f.Close()
		cw := sweep.NewCSVWriter(f)
		if len(done) == 0 {
			st, err := f.Stat()
			check(err)
			if st.Size() == 0 {
				check(cw.WriteHeader(grid.Axes))
			} else {
				cw.MarkHeaderWritten()
			}
		} else {
			cw.MarkHeaderWritten()
		}
		opts.RowOut = cw
	}

	cells, err := grid.Cells()
	check(err)
	total := len(progs) * len(cells)
	if !*quiet {
		opts.Progress = func(done, skipped, _ int) {
			fmt.Fprintf(os.Stderr, "\rdmpsweep: %d/%d cells (%d skipped)", done+skipped, total, skipped)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	fmt.Fprintf(os.Stderr, "dmpsweep: %d programs x %d cells (%d runs)\n", len(progs), len(cells), total)
	rep, err := sweep.Run(ctx, progs, grid, opts)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	check(err)
	fmt.Fprintf(os.Stderr, "dmpsweep: done in %v\n", time.Since(t0).Round(time.Millisecond))

	rep.Render(os.Stdout)
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			check(err)
			defer f.Close()
			out = f
		}
		check(rep.WriteJSON(out))
	}
}

// multiFlag collects repeated -axis occurrences.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpsweep:", err)
		os.Exit(1)
	}
}
