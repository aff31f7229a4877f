// Dmpprof profiles a DISA binary on an input tape and writes (or prints)
// the edge/misprediction profile the selection compiler consumes.
//
// Usage:
//
//	dmpprof -bin prog.dmp [-in inputs.txt] [-o prog.prof] [-top N]
//	dmpprof -bin prog.dmp -static [-in inputs.txt] [-o prog.est] [-top N]
//
// With -static the profile is synthesized by the static estimator
// (internal/static) instead of being collected by emulation — no tape is
// consumed. If -in is also given, a reference profile is collected from the
// tape and the estimate's accuracy against it (per-branch bias error,
// block-frequency rank correlation) is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dmp/internal/bench"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/static"
)

func main() {
	bin := flag.String("bin", "", "DISA binary (from dmpcc)")
	in := flag.String("in", "", "input tape (one integer per line)")
	out := flag.String("o", "", "write the binary profile to this path")
	top := flag.Int("top", 10, "print the N most mispredicted branches")
	useStatic := flag.Bool("static", false, "synthesize a static estimate instead of collecting (with -in: also report estimate accuracy)")
	flag.Parse()

	if *bin == "" {
		fmt.Fprintln(os.Stderr, "dmpprof: -bin is required")
		os.Exit(2)
	}
	if *top < 0 {
		fmt.Fprintf(os.Stderr, "dmpprof: -top must be non-negative, got %d\n", *top)
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*bin)
	check(err)
	prog, err := isa.ReadProgram(f)
	f.Close()
	check(err)

	var input []int64
	if *in != "" {
		input, err = bench.ReadTapeFile(*in)
		check(err)
	}

	var prof *profile.Profile
	if *useStatic {
		est, err := static.Analyze(prog, static.Options{Program: *bin})
		check(err)
		prof = est.Prof
		if *in != "" {
			ref, err := profile.Collect(prog, input, profile.Options{})
			check(err)
			acc := static.CompareProfiles(prog, prof, ref)
			fmt.Printf("estimate accuracy vs collected profile (%d branches, %d blocks):\n", acc.Branches, acc.Blocks)
			fmt.Printf("  mean branch bias      %.3f\n", acc.MeanBias)
			fmt.Printf("  weighted branch bias  %.3f\n", acc.WeightedBias)
			fmt.Printf("  freq rank correlation %.3f\n", acc.RankCorr)
		}
	} else {
		prof, err = profile.Collect(prog, input, profile.Options{})
		check(err)
	}

	fmt.Printf("retired  %d\n", prof.TotalRetired)
	fmt.Printf("MPKI     %.2f\n", prof.MPKI())

	type br struct {
		pc   int
		misp uint64
	}
	var brs []br
	for pc, m := range prof.Mispred {
		if m == 0 {
			// Dense slice: only branches that actually mispredicted count,
			// matching the old sparse-map behaviour.
			continue
		}
		brs = append(brs, br{pc, m})
	}
	sort.Slice(brs, func(i, j int) bool { return brs[i].misp > brs[j].misp })
	if *top > len(brs) {
		*top = len(brs)
	}
	fmt.Printf("top %d mispredicted branches:\n", *top)
	for _, b := range brs[:*top] {
		fn := "?"
		if fr := prog.FuncAt(b.pc); fr != nil {
			fn = fr.Name
		}
		fmt.Printf("  pc=%-6d %-12s exec=%-8d misp=%-8d rate=%.1f%% taken=%.1f%%\n",
			b.pc, fn, prof.BranchExec(b.pc), b.misp,
			prof.MispRate(b.pc)*100, prof.TakenProb(b.pc)*100)
	}

	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		_, err = prof.WriteTo(f)
		check(err)
		fmt.Printf("wrote %s\n", *out)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpprof:", err)
		os.Exit(1)
	}
}
