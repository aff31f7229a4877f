package verify_test

// Mutation testing of the static verifier: start from a known-good compiled
// and annotated program, corrupt it in one specific way, and assert the
// verifier flags the corruption with a diagnostic from the expected pass.
// Each case is a distinct defect class (binary structure, register dataflow,
// annotation legality). The cfg/dom/loops passes are self-consistency
// cross-checks of the analysis code and cannot be triggered by corrupting
// the program data, so they are exercised by the positive-path assertions
// (they must stay silent on every mutant whose binary is intact).

import (
	"strings"
	"testing"

	"dmp/internal/cfg"
	"dmp/internal/codegen"
	"dmp/internal/isa"
	"dmp/internal/verify"
)

// goodSrc is shaped so each annotation kind has an obvious, deterministic
// host: shorth holds a tiny if/else (legal short hammock), longh an if whose
// then-arm is far beyond the short bound, and main a while loop whose
// condition branch is a two-way loop exit.
const goodSrc = `
var g = 0;

func shorth(v) {
	var r = 0;
	if (v & 1) { r = v + 1; } else { r = v - 1; }
	return r;
}

func longh(v) {
	var r = 0;
	if (v & 2) {
		g = g + v;
		g = (g * 3) + 1;
		g = g + (v >> 1);
		g = (g * 5) + 2;
		g = g + (v >> 2);
	} else {
		r = 1;
	}
	return r + g;
}

func main() {
	var s = 0;
	while (inavail()) {
		var v = in();
		s = s + shorth(v) + longh(v);
	}
	out(s);
}
`

// anal bundles the per-function analyses the test uses to construct legal
// annotations by hand.
type anal struct {
	fn    isa.Func
	g     *cfg.Graph
	pdom  *cfg.DomTree
	dom   *cfg.DomTree
	loops []*cfg.Loop
}

func analyze(t *testing.T, p *isa.Program, name string) anal {
	t.Helper()
	fn := p.FuncByName(name)
	if fn == nil {
		t.Fatalf("no function %q", name)
	}
	g, err := cfg.Build(p, *fn)
	if err != nil {
		t.Fatalf("cfg %s: %v", name, err)
	}
	dom := cfg.Dominators(g)
	return anal{fn: *fn, g: g, pdom: cfg.PostDominators(g), dom: dom, loops: cfg.NaturalLoops(g, dom)}
}

// onlyBranch returns the single conditional branch of the function.
func (a anal) onlyBranch(t *testing.T) int {
	t.Helper()
	brs := a.g.CondBranches()
	if len(brs) != 1 {
		t.Fatalf("%s: want exactly 1 conditional branch, have %v", a.fn.Name, brs)
	}
	return brs[0]
}

func (a anal) iposStart(t *testing.T, brPC int) int {
	t.Helper()
	ip := cfg.IPosDom(a.g, a.pdom, brPC)
	if ip < 0 {
		t.Fatalf("%s: branch %d has no immediate post-dominator", a.fn.Name, brPC)
	}
	return a.g.Blocks[ip].Start
}

// goodProgram compiles goodSrc and attaches one legal annotation of every
// kind: a short hammock, a plain CFM hammock, and a diverge loop.
func goodProgram(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := codegen.CompileSource(goodSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	annots := map[int]*isa.DivergeInfo{}

	sh := analyze(t, prog, "shorth")
	shBr := sh.onlyBranch(t)
	annots[shBr] = &isa.DivergeInfo{
		Short: true,
		CFMs:  []isa.CFM{{Kind: isa.CFMAddr, Addr: sh.iposStart(t, shBr), MergeProb: 1}},
	}

	lh := analyze(t, prog, "longh")
	lhBr := lh.onlyBranch(t)
	annots[lhBr] = &isa.DivergeInfo{
		CFMs: []isa.CFM{{Kind: isa.CFMAddr, Addr: lh.iposStart(t, lhBr), MergeProb: 1}},
	}

	mn := analyze(t, prog, "main")
	loopBr, loop := -1, (*cfg.Loop)(nil)
	for _, brPC := range mn.g.CondBranches() {
		l := cfg.InnermostLoopWithExit(mn.loops, brPC)
		if l == nil {
			continue
		}
		blk := mn.g.BlockAt(brPC)
		ntIn := blk.Succs[0] != mn.g.ExitID && l.Contains(blk.Succs[0])
		tkIn := blk.Succs[1] != mn.g.ExitID && l.Contains(blk.Succs[1])
		if ntIn != tkIn {
			loopBr, loop = brPC, l
			break
		}
	}
	if loopBr < 0 {
		t.Fatal("main: no two-way loop exit branch found")
	}
	blk := mn.g.BlockAt(loopBr)
	ntIn := blk.Succs[0] != mn.g.ExitID && loop.Contains(blk.Succs[0])
	annots[loopBr] = &isa.DivergeInfo{
		Loop:          true,
		LoopHead:      mn.g.Blocks[loop.Header].Start,
		LoopExitTaken: ntIn,
	}

	return prog.WithAnnots(annots)
}

func deepCopy(p *isa.Program) *isa.Program {
	q := *p
	q.Code = append([]isa.Inst(nil), p.Code...)
	q.Funcs = append([]isa.Func(nil), p.Funcs...)
	q.Annots = make(map[int]*isa.DivergeInfo, len(p.Annots))
	for pc, d := range p.Annots {
		q.Annots[pc] = d.Clone()
	}
	return &q
}

// annotOfKind returns the pc of the first annotation satisfying pick.
func annotOfKind(t *testing.T, p *isa.Program, pick func(*isa.DivergeInfo) bool) int {
	t.Helper()
	best := -1
	for pc, d := range p.Annots {
		if pick(d) && (best < 0 || pc < best) {
			best = pc
		}
	}
	if best < 0 {
		t.Fatal("no annotation of the requested kind")
	}
	return best
}

// firstNonControl returns the first straight-line instruction of a function.
func firstNonControl(t *testing.T, p *isa.Program, name string) int {
	t.Helper()
	fn := p.FuncByName(name)
	for pc := fn.Entry; pc < fn.End; pc++ {
		if !p.Code[pc].IsControl() {
			return pc
		}
	}
	t.Fatalf("%s: all instructions are control flow", name)
	return -1
}

func TestGoodProgramIsClean(t *testing.T) {
	p := goodProgram(t)
	if diags := verify.Run(p, verify.Options{Program: "good"}); len(diags) > 0 {
		for _, d := range diags {
			t.Error(d)
		}
	}
}

// mutationCase corrupts a copy of the good program in one way that the
// named pass must flag.
type mutationCase struct {
	name     string
	wantPass string
	mutate   func(t *testing.T, p *isa.Program)
}

func mutationCases() []mutationCase {
	isShort := func(d *isa.DivergeInfo) bool { return d.Short }
	isLoop := func(d *isa.DivergeInfo) bool { return d.Loop }
	isPlain := func(d *isa.DivergeInfo) bool { return !d.Short && !d.Loop && len(d.CFMs) > 0 }

	return []mutationCase{
		{"branch-target-out-of-range", verify.PassBinary, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			p.Code[pc].Target = len(p.Code) + 5
		}},
		{"invalid-opcode", verify.PassBinary, func(t *testing.T, p *isa.Program) {
			p.Code[firstNonControl(t, p, "main")].Op = isa.Op(250)
		}},
		{"register-field-out-of-range", verify.PassBinary, func(t *testing.T, p *isa.Program) {
			p.Code[firstNonControl(t, p, "main")].Rd = isa.NumRegs + 7
		}},
		{"entry-out-of-range", verify.PassBinary, func(t *testing.T, p *isa.Program) {
			p.Entry = len(p.Code) + 1
		}},
		{"overlapping-functions", verify.PassBinary, func(t *testing.T, p *isa.Program) {
			if len(p.Funcs) < 2 {
				t.Fatal("need two functions")
			}
			p.Funcs[1].Entry = p.Funcs[0].End - 1
		}},
		{"read-of-undefined-temp", verify.PassDataflow, func(t *testing.T, p *isa.Program) {
			pc := firstNonControl(t, p, "longh")
			p.Code[pc] = isa.Inst{Op: isa.OpAdd, Rd: 8, Rs1: isa.RegTempFirst, Rs2: isa.RegTempFirst}
		}},
		{"annotation-on-non-branch", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := firstNonControl(t, p, "main")
			p.Annots[pc] = &isa.DivergeInfo{CFMs: []isa.CFM{{Kind: isa.CFMAddr, Addr: pc, MergeProb: 1}}}
		}},
		{"cfm-not-on-block-boundary", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			// The annotated branch terminates a multi-instruction block, so
			// its own address is never a block start.
			p.Annots[pc].CFMs[0].Addr = pc
		}},
		{"cfm-in-wrong-function", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			p.Annots[pc].CFMs[0].Addr = p.FuncByName("shorth").Entry
		}},
		{"cfm-unreachable-from-branch", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			// The function's entry address is upstream of the branch; no path
			// from either successor leads back to it.
			p.Annots[pc].CFMs[0].Addr = p.FuncByName("longh").Entry
		}},
		{"duplicate-cfms", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			d := p.Annots[pc]
			d.CFMs = append(d.CFMs, d.CFMs[0])
		}},
		{"cfm-chain-unordered", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			d := p.Annots[pc]
			d.CFMs[0].MergeProb = 0.25
			d.CFMs = append(d.CFMs, isa.CFM{Kind: isa.CFMReturn, MergeProb: 0.75})
		}},
		{"too-many-cfms", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			d := p.Annots[pc]
			a := d.CFMs[0].Addr
			d.CFMs = []isa.CFM{
				{Kind: isa.CFMAddr, Addr: a, MergeProb: 0.9},
				{Kind: isa.CFMAddr, Addr: a + 1, MergeProb: 0.8},
				{Kind: isa.CFMAddr, Addr: a + 2, MergeProb: 0.7},
				{Kind: isa.CFMAddr, Addr: a + 3, MergeProb: 0.6},
			}
		}},
		{"negative-merge-probability", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			p.Annots[pc].CFMs[0].MergeProb = -0.25
		}},
		{"merge-probability-above-one", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			p.Annots[pc].CFMs[0].MergeProb = 1.5
		}},
		{"two-return-cfms", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isPlain)
			p.Annots[pc].CFMs = []isa.CFM{
				{Kind: isa.CFMReturn, MergeProb: 0.5},
				{Kind: isa.CFMReturn, MergeProb: 0.4},
			}
		}},
		{"loop-head-not-a-header", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isLoop)
			p.Annots[pc].LoopHead++
		}},
		{"loop-exit-direction-flipped", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isLoop)
			p.Annots[pc].LoopExitTaken = !p.Annots[pc].LoopExitTaken
		}},
		{"loop-with-cfm-list", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isLoop)
			p.Annots[pc].CFMs = []isa.CFM{{Kind: isa.CFMAddr, Addr: p.Annots[pc].LoopHead, MergeProb: 1}}
		}},
		{"short-with-two-cfms", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			pc := annotOfKind(t, p, isShort)
			d := p.Annots[pc]
			d.CFMs[0].MergeProb = 0.9
			d.CFMs = append(d.CFMs, isa.CFM{Kind: isa.CFMReturn, MergeProb: 0.5})
		}},
		{"short-hammock-beyond-bound", verify.PassAnnot, func(t *testing.T, p *isa.Program) {
			// longh's then-arm is far longer than the short bound; marking its
			// branch as a short hammock is illegal.
			pc := annotOfKind(t, p, isPlain)
			p.Annots[pc].Short = true
		}},
	}
}

func TestMutationsAreDetected(t *testing.T) {
	base := goodProgram(t)
	for _, tc := range mutationCases() {
		t.Run(tc.name, func(t *testing.T) {
			mut := deepCopy(base)
			tc.mutate(t, mut)
			diags := verify.Run(mut, verify.Options{Program: tc.name})
			if len(diags) == 0 {
				t.Fatalf("mutation %s not detected", tc.name)
			}
			for _, d := range diags {
				if d.Pass == tc.wantPass {
					return
				}
			}
			var got []string
			for _, d := range diags {
				got = append(got, d.String())
			}
			t.Fatalf("no diagnostic from pass %q; got:\n%s", tc.wantPass, strings.Join(got, "\n"))
		})
	}
}

// TestCheckEntryPoints covers the error-returning wrappers the toolchain
// wires in: Check (codegen) and CheckAnnots (selection, harness).
func TestCheckEntryPoints(t *testing.T) {
	good := goodProgram(t)
	if err := verify.Check(good, "good"); err != nil {
		t.Fatalf("Check on clean program: %v", err)
	}
	if err := verify.CheckAnnots(good, "good"); err != nil {
		t.Fatalf("CheckAnnots on clean program: %v", err)
	}
	bad := deepCopy(good)
	pc := annotOfKind(t, bad, func(d *isa.DivergeInfo) bool { return len(d.CFMs) > 0 })
	bad.Annots[pc].CFMs[0].MergeProb = 2
	if err := verify.Check(bad, "bad"); err == nil {
		t.Fatal("Check missed an illegal merge probability")
	}
	if err := verify.CheckAnnots(bad, "bad"); err == nil {
		t.Fatal("CheckAnnots missed an illegal merge probability")
	}
}

// TestUnknownPassRejected ensures a typoed -passes value cannot silently
// verify nothing.
func TestUnknownPassRejected(t *testing.T) {
	p := goodProgram(t)
	diags := verify.Run(p, verify.Options{Program: "p", Passes: []string{"binray"}})
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "unknown pass") {
		t.Fatalf("want one unknown-pass diagnostic, got %v", diags)
	}
}
