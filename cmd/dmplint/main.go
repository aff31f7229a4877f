// Dmplint statically verifies DMP artifacts: DISA binaries, the CFG
// analyses recovered from them, and diverge-branch annotation sidecars.
//
// Usage:
//
//	dmplint [flags] prog.dmp ...              verify serialized binaries
//	dmplint -src prog.dml [-in tape] [-algo A] verify a fresh compile+selection
//	dmplint -corpus                            verify every benchmark x input
//	                                           set x selection algorithm
//
// Exit status is 0 when every artifact is clean, 1 when any diagnostic was
// reported, 2 on usage or I/O errors. With -json the diagnostics are printed
// as a JSON array; -passes restricts the run to a comma-separated subset of
// the passes (see verify.PassNames).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

func main() {
	src := flag.String("src", "", "DML source file to compile and verify")
	in := flag.String("in", "", "profiling input tape for -src (one integer per line)")
	algo := flag.String("algo", "none", "selection algorithm for -src: none, "+strings.Join(core.Algorithms(), ", "))
	opt := flag.Bool("O", false, "run the IR optimizer when compiling -src")
	corpus := flag.Bool("corpus", false, "verify every benchmark x input set x selection algorithm")
	jsonOut := flag.Bool("json", false, "print diagnostics as a JSON array")
	passes := flag.String("passes", "", "comma-separated pass subset (default: all of "+strings.Join(verify.PassNames(), ",")+")")
	shortMax := flag.Int("short-max", 10, "short-hammock instruction bound")
	callWeight := flag.Int("call-weight", 0, "call weight in distance accounting (0 = default, <0 = 1)")
	quiet := flag.Bool("q", false, "suppress per-diagnostic output; exit status only")
	flag.Parse()

	base := verify.Options{ShortMaxInsts: *shortMax, CallWeight: *callWeight}
	if *passes != "" {
		base.Passes = strings.Split(*passes, ",")
	}

	var diags []verify.Diagnostic
	lint := func(p *isa.Program, name string) {
		opts := base
		opts.Program = name
		diags = append(diags, verify.Run(p, opts)...)
	}

	switch {
	case *corpus:
		if *src != "" || flag.NArg() > 0 {
			die("-corpus does not take -src or file arguments")
		}
		lintCorpus(lint)
	case *src != "":
		if flag.NArg() > 0 {
			die("-src does not take file arguments")
		}
		lintSource(lint, *src, *in, *algo, *opt)
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			check(err)
			p, err := isa.ReadProgram(f)
			f.Close()
			if err != nil {
				// An unreadable container is itself a finding, not a crash.
				diags = append(diags, verify.Diagnostic{
					Pass: "read", Severity: verify.SevError, Program: path, Addr: -1,
					Msg: err.Error(),
				})
				continue
			}
			lint(p, path)
		}
	default:
		fmt.Fprintln(os.Stderr, "dmplint: nothing to verify (give binaries, -src, or -corpus)")
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []verify.Diagnostic{}
		}
		check(enc.Encode(diags))
	} else if !*quiet {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*quiet && !*jsonOut {
			fmt.Fprintf(os.Stderr, "dmplint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// lintSource compiles one DML file, optionally runs selection, and verifies
// the result.
func lintSource(lint func(*isa.Program, string), src, in, algo string, opt bool) {
	text, err := os.ReadFile(src)
	check(err)
	var prog *isa.Program
	if opt {
		prog, err = codegen.CompileSourceOptimized(string(text))
	} else {
		prog, err = codegen.CompileSource(string(text))
	}
	check(err)
	if algo != "none" {
		var tape []int64
		if in != "" {
			tape, err = bench.ReadTapeFile(in)
			check(err)
		}
		prof, err := profile.Collect(prog, tape, profile.Options{})
		check(err)
		res, err := core.SelectByName(prog, prof, algo)
		check(err)
		prog = prog.WithAnnots(res.Annots)
	}
	lint(prog, src+":"+algo)
}

// lintCorpus verifies the full evaluation matrix: every benchmark, profiled
// on both input tapes, through every selection algorithm (plus the bare
// binary once per benchmark).
func lintCorpus(lint func(*isa.Program, string)) {
	sets := []struct {
		name string
		set  bench.InputSet
	}{{"run", bench.RunInput}, {"train", bench.TrainInput}}
	for _, b := range bench.All() {
		prog, err := b.Compile()
		check(err)
		lint(prog.WithAnnots(nil), b.Name+"/bare")
		for _, s := range sets {
			prof, err := profile.Collect(prog, b.Input(s.set, 1), profile.Options{})
			check(err)
			for _, algo := range core.Algorithms() {
				res, err := core.SelectByName(prog, prof, algo)
				check(err)
				lint(prog.WithAnnots(res.Annots), b.Name+"/"+s.name+"/"+algo)
			}
		}
	}
}

func die(msg string) {
	fmt.Fprintln(os.Stderr, "dmplint:", msg)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmplint:", err)
		os.Exit(2)
	}
}
