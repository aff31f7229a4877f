// Dmpcc compiles DML source to an annotated DISA binary: it runs the front
// end and code generator, profiles the program on an input tape, runs the
// selected diverge-branch selection algorithm, and writes the binary with
// its DMP annotation sidecar.
//
// Usage:
//
//	dmpcc -src prog.dml -in inputs.txt -o prog.dmp [-algo heur|cost-long|cost-edge|every|random50|highbp|immediate|ifelse|none] [-S]
//	dmpcc -src prog.dml -static -o prog.dmp [-algo ...] [-S]
//
// The input file holds one decimal value per line (the profiling tape).
// With -static the selection algorithm consumes a static profile estimate
// (internal/static) instead of a collected profile, so no input tape is
// needed — the fully profile-free compilation path. With -S the annotated
// disassembly is printed instead of writing a binary.
package main

import (
	"flag"
	"fmt"
	"os"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/static"
)

func main() {
	src := flag.String("src", "", "DML source file")
	in := flag.String("in", "", "profiling input tape (one integer per line; optional)")
	out := flag.String("o", "a.dmp", "output binary path")
	algo := flag.String("algo", "heur", "selection algorithm: heur, cost-long, cost-edge, every, random50, highbp, immediate, ifelse, none")
	asm := flag.Bool("S", false, "print annotated disassembly instead of writing the binary")
	opt := flag.Bool("O", false, "run the IR optimizer (constant folding, branch simplification, dead-block elimination)")
	useStatic := flag.Bool("static", false, "select from a static profile estimate instead of a collected profile (no tape needed)")
	flag.Parse()

	if *src == "" {
		fmt.Fprintln(os.Stderr, "dmpcc: -src is required")
		os.Exit(2)
	}
	text, err := os.ReadFile(*src)
	check(err)
	var prog *isa.Program
	if *opt {
		prog, err = codegen.CompileSourceOptimized(string(text))
	} else {
		prog, err = codegen.CompileSource(string(text))
	}
	check(err)

	var input []int64
	if *in != "" {
		input, err = bench.ReadTapeFile(*in)
		check(err)
	}

	if *algo != "none" {
		var prof *profile.Profile
		if *useStatic {
			est, err := static.Analyze(prog, static.Options{Program: *src})
			check(err)
			prof = est.Prof
		} else {
			prof, err = profile.Collect(prog, input, profile.Options{})
			check(err)
		}
		res, err := core.SelectByName(prog, prof, *algo)
		check(err)
		prog.Annots = res.Annots
	}

	if *asm {
		fmt.Print(prog.Disassemble())
		return
	}
	f, err := os.Create(*out)
	check(err)
	defer f.Close()
	_, err = prog.WriteTo(f)
	check(err)
	fmt.Printf("dmpcc: wrote %s (%d instructions, %d diverge branches)\n",
		*out, len(prog.Code), prog.NumDivergeBranches())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpcc:", err)
		os.Exit(1)
	}
}
