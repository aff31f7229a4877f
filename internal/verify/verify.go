// Package verify is a multi-pass static-analysis framework over the whole
// DMP artifact chain: DISA binaries, the control-flow analyses recovered
// from them, and the diverge-branch annotation sidecar the selection
// compiler emits.
//
// The toolchain's correctness hinges on structural invariants that were
// previously assumed but never checked end-to-end: exact-hammock CFM points
// must post-dominate their diverge branch, frequently-hammock CFM points
// must be reachable from both directions of the branch, short hammocks must
// respect the instruction-count bound, and diverge-loop annotations must
// target real loop headers and exit edges (paper Sections 2-4, 7.2). The
// verifier makes every one of those invariants machine-checkable, so any
// layer that regresses — codegen, CFG recovery, selection, serialization —
// is caught the moment it emits an illegal artifact.
//
// Passes (run in order; later passes are skipped per-unit when an earlier
// pass already found the unit broken):
//
//	binary    DISA well-formedness: opcodes, register fields,
//	          branch/jump targets, entry point, function symbols
//	dataflow  register def-before-use: a forward definite-assignment
//	          analysis over each function's CFG flags reads of
//	          caller-clobbered registers that no path has written
//	encode    container self-consistency: serialize + reparse must
//	          reproduce the program and re-encode to identical bytes,
//	          for the code prefix and the annotation sidecar apart
//	cfg       recovered CFG matches the binary: block partition,
//	          edge/instruction agreement, pred/succ symmetry
//	dom       dominator and post-dominator trees agree with an
//	          independent iterative fixpoint computation
//	loops     natural-loop sanity: header dominates latches, body
//	          closure, exit branches really leave the loop
//	annot     annotation legality per kind: local ISA rules
//	          (delegated to isa.Program.ValidateAnnot), CFM points on
//	          block boundaries inside the branch's function and
//	          reachable from both directions, short-hammock distance
//	          bound, return CFMs only in returning functions, diverge
//	          loops on real two-way loop exits with consistent
//	          direction bits
//
// All but annot and the sidecar half of encode read only the code, symbols,
// entry and globals. When they all find nothing, the run records a clean
// verdict for the code array (verdict.go); later runs on the same, unchanged
// code skip them and check only the sidecar.
//
// The passes read the per-function analyses shared per code array
// (cfg.Shared), the same ones the selection compiler and the static
// estimator use. Sharing does not make the verifier check its own output:
// the cfg pass re-derives every edge from the instructions and the dom pass
// recomputes dominance by an independent fixpoint.
//
// Every diagnostic carries the pass name, a severity, and a program:addr
// location; cmd/dmplint exposes the framework as a CLI with -json output.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"dmp/internal/cfg"
	"dmp/internal/isa"
)

// Severity grades a diagnostic.
type Severity uint8

const (
	// SevError marks a violated invariant: the artifact is illegal and the
	// hardware model or toolchain may misbehave on it.
	SevError Severity = iota
	// SevWarn marks a suspicious but not strictly illegal construct.
	SevWarn
)

// String names the severity.
func (s Severity) String() string {
	if s == SevWarn {
		return "warning"
	}
	return "error"
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Diagnostic is one verifier finding.
type Diagnostic struct {
	// Pass is the verifier pass that produced the finding.
	Pass string `json:"pass"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Program is the display name of the checked artifact.
	Program string `json:"program"`
	// Addr is the code address the finding anchors to, or -1 when the
	// finding is program-wide.
	Addr int `json:"addr"`
	// Msg describes the violated invariant.
	Msg string `json:"msg"`
}

// String renders the diagnostic as "program:addr: [pass] severity: msg".
func (d Diagnostic) String() string {
	loc := d.Program
	if d.Addr >= 0 {
		loc = fmt.Sprintf("%s:%d", d.Program, d.Addr)
	}
	return fmt.Sprintf("%s: [%s] %s: %s", loc, d.Pass, d.Severity, d.Msg)
}

// Pass names, in execution order.
const (
	PassBinary   = "binary"
	PassDataflow = "dataflow"
	PassEncode   = "encode"
	PassCFG      = "cfg"
	PassDom      = "dom"
	PassLoops    = "loops"
	PassAnnot    = "annot"
)

// PassNames lists every pass in execution order.
func PassNames() []string {
	return []string{PassBinary, PassDataflow, PassEncode, PassCFG, PassDom, PassLoops, PassAnnot}
}

// Options configures a verification run.
type Options struct {
	// Program is the display name used in diagnostics (default "prog").
	Program string
	// Passes restricts the run to the named passes (nil = all). Unknown
	// names are reported as a diagnostic rather than silently ignored.
	Passes []string
	// ShortMaxInsts is the instruction bound a short hammock's CFM distance
	// must respect on both directions (the paper's 3.4 threshold;
	// default 10).
	ShortMaxInsts int
	// CallWeight is the instruction weight of a call in distance accounting
	// (default cfg.DefaultCallWeight; negative for weight 1).
	CallWeight int
}

func (o Options) withDefaults() Options {
	if o.Program == "" {
		o.Program = "prog"
	}
	if o.ShortMaxInsts == 0 {
		o.ShortMaxInsts = 10
	}
	if o.CallWeight == 0 {
		o.CallWeight = cfg.DefaultCallWeight
	} else if o.CallWeight < 0 {
		o.CallWeight = 1
	}
	return o
}

type checker struct {
	p     *isa.Program
	opts  Options
	diags []Diagnostic

	// Scratch reused across annotations by reachable and shortestDist.
	reach [2]bitset
	stack []int
	dist  []int
	done  []bool
}

func (c *checker) report(pass string, addr int, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pass:     pass,
		Severity: SevError,
		Program:  c.opts.Program,
		Addr:     addr,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Run executes the requested verifier passes over the program and returns
// every diagnostic found, in pass order and ascending address within a pass.
func Run(p *isa.Program, opts Options) []Diagnostic {
	opts = opts.withDefaults()
	c := &checker{p: p, opts: opts}

	want := map[string]bool{}
	if opts.Passes == nil {
		for _, name := range PassNames() {
			want[name] = true
		}
	} else {
		known := map[string]bool{}
		for _, name := range PassNames() {
			known[name] = true
		}
		for _, name := range opts.Passes {
			if !known[name] {
				c.report("verify", -1, "unknown pass %q (have %s)", name, strings.Join(PassNames(), ", "))
				continue
			}
			want[name] = true
		}
	}

	// A clean verdict on the code covers every code pass, so only the
	// sidecar checks run. On a miss, a run of every code pass that finds
	// nothing records one.
	clean := codeClean(p)
	if want[PassBinary] && !clean {
		before := len(c.diags)
		c.binaryPass()
		// A structurally broken binary makes the downstream passes report
		// noise (or crash the analyses they depend on); stop at the root
		// cause.
		if len(c.diags) > before {
			return c.diags
		}
	}
	if want[PassDataflow] && !clean {
		c.dataflowPass()
	}
	sidecar := 0 // diagnostics of the encode pass's sidecar half
	if want[PassEncode] {
		codeOK := clean || c.encodeCodePass()
		before := len(c.diags)
		if codeOK {
			c.encodeAnnotsPass()
		}
		sidecar = len(c.diags) - before
	}
	if !clean {
		if want[PassCFG] {
			c.cfgPass()
		}
		if want[PassDom] {
			c.domPass()
		}
		if want[PassLoops] {
			c.loopsPass()
		}
		if len(c.diags) == sidecar && want[PassBinary] && want[PassDataflow] && want[PassEncode] &&
			want[PassCFG] && want[PassDom] && want[PassLoops] {
			recordClean(p)
		}
	}
	if want[PassAnnot] {
		c.annotPass()
	}
	return c.diags
}

// Check runs every pass and returns an error summarising the diagnostics,
// or nil when the program is clean. It is the entry point the codegen
// driver uses as its post-compile check.
func Check(p *isa.Program, name string) error {
	return asError(Run(p, Options{Program: name}))
}

// CheckAnnots runs only the annotation-legality pass (plus the binary
// pre-flight it depends on, which a clean verdict on the code already
// covers). It is the fail-fast check the selection algorithms run on every
// annotation set before returning it.
func CheckAnnots(p *isa.Program, name string) error {
	return asError(Run(p, Options{Program: name, Passes: []string{PassBinary, PassAnnot}}))
}

func asError(diags []Diagnostic) error {
	if len(diags) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(diags))
	for i, d := range diags {
		if i == 8 {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(diags)-i))
			break
		}
		msgs = append(msgs, d.String())
	}
	return fmt.Errorf("verify: %d diagnostic(s):\n\t%s", len(diags), strings.Join(msgs, "\n\t"))
}

// sortedAnnotPCs returns the annotated branch addresses in ascending order
// for deterministic diagnostics.
func sortedAnnotPCs(p *isa.Program) []int {
	pcs := make([]int, 0, len(p.Annots))
	for pc := range p.Annots {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	return pcs
}
