package isa

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestOpValid(t *testing.T) {
	if !OpAdd.Valid() || !OpHalt.Valid() {
		t.Error("defined opcodes reported invalid")
	}
	if Op(250).Valid() || numOps.Valid() {
		t.Error("undefined opcode reported valid")
	}
}

func TestInstClassification(t *testing.T) {
	cases := []struct {
		in           Inst
		cond, ctl    bool
		direct       bool
		writes       int
		wantReadsLen int
	}{
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, false, false, false, 1, 2},
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, UseImm: true}, false, false, false, 1, 1},
		{Inst{Op: OpAdd, Rd: RegZero, Rs1: 2, Rs2: 3}, false, false, false, -1, 2},
		{Inst{Op: OpBeqz, Rs1: 4, Target: 10}, true, true, true, -1, 1},
		{Inst{Op: OpBnez, Rs1: 4, Target: 10}, true, true, true, -1, 1},
		{Inst{Op: OpJmp, Target: 5}, false, true, true, -1, 0},
		{Inst{Op: OpCall, Target: 5}, false, true, true, RegLR, 0},
		{Inst{Op: OpCallR, Rs1: 9}, false, true, false, RegLR, 1},
		{Inst{Op: OpRet}, false, true, false, -1, 1},
		{Inst{Op: OpJr, Rs1: 7}, false, true, false, -1, 1},
		{Inst{Op: OpLd, Rd: 3, Rs1: 8}, false, false, false, 3, 1},
		{Inst{Op: OpSt, Rs1: 8, Rs2: 3}, false, false, false, -1, 2},
		{Inst{Op: OpIn, Rd: 5}, false, false, false, 5, 0},
		{Inst{Op: OpOut, Rs1: 5}, false, false, false, -1, 1},
		{Inst{Op: OpHalt}, false, true, false, -1, 0},
		{Inst{Op: OpNop}, false, false, false, -1, 0},
	}
	for _, c := range cases {
		if got := c.in.IsCondBranch(); got != c.cond {
			t.Errorf("%s: IsCondBranch = %v, want %v", c.in, got, c.cond)
		}
		if got := c.in.IsControl(); got != c.ctl {
			t.Errorf("%s: IsControl = %v, want %v", c.in, got, c.ctl)
		}
		if got := c.in.IsDirect(); got != c.direct {
			t.Errorf("%s: IsDirect = %v, want %v", c.in, got, c.direct)
		}
		if got := c.in.Writes(); got != c.writes {
			t.Errorf("%s: Writes = %d, want %d", c.in, got, c.writes)
		}
		if got := len(c.in.Reads(nil)); got != c.wantReadsLen {
			t.Errorf("%s: len(Reads) = %d, want %d", c.in, got, c.wantReadsLen)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpSub, Rd: 1, Rs1: 2, UseImm: true, Imm: 7}, "sub r1, r2, 7"},
		{Inst{Op: OpMovI, Rd: 4, Imm: -9}, "movi r4, -9"},
		{Inst{Op: OpMov, Rd: 4, Rs1: 5}, "mov r4, r5"},
		{Inst{Op: OpLd, Rd: 2, Rs1: 62, Imm: 3}, "ld r2, [r62+3]"},
		{Inst{Op: OpSt, Rs1: 62, Rs2: 2, Imm: 3}, "st r2, [r62+3]"},
		{Inst{Op: OpBeqz, Rs1: 1, Target: 12}, "beqz r1, 12"},
		{Inst{Op: OpJmp, Target: 3}, "jmp 3"},
		{Inst{Op: OpRet}, "ret"},
		{Inst{Op: OpIn, Rd: 9}, "in r9"},
		{Inst{Op: OpOut, Rs1: 9}, "out r9"},
		{Inst{Op: OpHalt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// buildToy returns a small two-function program used by several tests.
func buildToy(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
	b.SetGlobals(16)
	b.Func("main")
	b.In(1)
	b.Bnez(1, "else")
	b.ALUI(OpAdd, 2, 2, 1)
	b.Jmp("merge")
	b.Label("else")
	b.ALUI(OpSub, 2, 2, 1)
	b.Label("merge")
	b.Call("emit")
	b.Halt()
	b.Func("emit")
	b.Out(2)
	b.Ret()
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestBuilderLink(t *testing.T) {
	p := buildToy(t)
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0 (main first)", p.Entry)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(p.Funcs))
	}
	if p.Funcs[1].Name != "emit" || p.Funcs[1].Entry != 7 {
		t.Errorf("emit = %+v", p.Funcs[1])
	}
	// The forward branch to "else" must have been fixed up.
	if p.Code[1].Target != 4 {
		t.Errorf("bnez target = %d, want 4", p.Code[1].Target)
	}
	if p.Code[3].Target != 5 {
		t.Errorf("jmp target = %d, want 5", p.Code[3].Target)
	}
	if p.Code[5].Op != OpCall || p.Code[5].Target != 7 {
		t.Errorf("call = %v", p.Code[5])
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Func("main")
	b.Jmp("nowhere")
	if _, err := b.Link(); err == nil {
		t.Error("undefined label not reported")
	}

	b = NewBuilder()
	b.Func("main")
	b.Label("x")
	b.Halt()
	b.Label("x")
	if _, err := b.Link(); err == nil {
		t.Error("duplicate label not reported")
	}

	b = NewBuilder()
	b.Func("empty")
	b.Func("main")
	b.Halt()
	if _, err := b.Link(); err == nil {
		t.Error("empty function not reported")
	}
}

func TestFuncAt(t *testing.T) {
	p := buildToy(t)
	if f := p.FuncAt(0); f == nil || f.Name != "main" {
		t.Errorf("FuncAt(0) = %v", f)
	}
	if f := p.FuncAt(8); f == nil || f.Name != "emit" {
		t.Errorf("FuncAt(8) = %v", f)
	}
	if f := p.FuncAt(99); f != nil {
		t.Errorf("FuncAt(99) = %v, want nil", f)
	}
	if f := p.FuncByName("emit"); f == nil || f.Entry != 7 {
		t.Errorf("FuncByName(emit) = %v", f)
	}
	if f := p.FuncByName("nope"); f != nil {
		t.Errorf("FuncByName(nope) = %v, want nil", f)
	}
}

func TestValidate(t *testing.T) {
	p := buildToy(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := *p
	bad.Entry = 1000
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range entry accepted")
	}

	bad = *p
	bad.Annots = map[int]*DivergeInfo{0: {CFMs: []CFM{{Addr: 2}}}}
	if err := bad.Validate(); err == nil {
		t.Error("annotation on non-branch accepted")
	}

	bad = *p
	bad.Annots = map[int]*DivergeInfo{1: {CFMs: []CFM{{Addr: 9999}}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range CFM accepted")
	}

	// An annotation with no CFM points is legal (dual-path until resolve).
	bad = *p
	bad.Annots = map[int]*DivergeInfo{1: {}}
	if err := bad.Validate(); err != nil {
		t.Errorf("CFM-less annotation rejected: %v", err)
	}

	bad = *p
	bad.Annots = map[int]*DivergeInfo{1: {Loop: true, LoopHead: -3}}
	if err := bad.Validate(); err == nil {
		t.Error("bad loop head accepted")
	}
}

func TestAnnotationHelpers(t *testing.T) {
	p := buildToy(t)
	p.Annots[1] = &DivergeInfo{CFMs: []CFM{{Addr: 5, MergeProb: 0.9}}}
	if got := p.NumDivergeBranches(); got != 1 {
		t.Errorf("NumDivergeBranches = %d", got)
	}
	if got := p.NumStaticBranches(); got != 1 {
		t.Errorf("NumStaticBranches = %d", got)
	}
	if got := p.AvgCFMPerDiverge(); got != 1 {
		t.Errorf("AvgCFMPerDiverge = %v", got)
	}
	clone := p.CloneAnnots()
	clone[1].CFMs[0].Addr = 3
	if p.Annots[1].CFMs[0].Addr != 5 {
		t.Error("CloneAnnots did not deep-copy CFMs")
	}
	q := p.WithAnnots(nil)
	if len(q.Annots) != 0 {
		t.Error("WithAnnots(nil) not empty")
	}
	if len(p.Annots) != 1 {
		t.Error("WithAnnots mutated receiver")
	}
	p.ClearAnnots()
	if len(p.Annots) != 0 {
		t.Error("ClearAnnots left annotations")
	}
	var nilInfo *DivergeInfo
	if nilInfo.Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

func TestAvgCFMLoopWithoutCFMs(t *testing.T) {
	p := buildToy(t)
	p.Annots[1] = &DivergeInfo{Loop: true, LoopHead: 0}
	if got := p.AvgCFMPerDiverge(); got != 1 {
		t.Errorf("loop without CFMs should count as 1 merge point, got %v", got)
	}
	var empty Program
	if got := empty.AvgCFMPerDiverge(); got != 0 {
		t.Errorf("empty program AvgCFM = %v", got)
	}
}

func TestDisassemble(t *testing.T) {
	p := buildToy(t)
	p.Annots[1] = &DivergeInfo{CFMs: []CFM{{Addr: 5, MergeProb: 0.87}}, Short: true}
	asm := p.Disassemble()
	for _, want := range []string{"main:", "emit:", "bnez r1, 4", "; diverge", "short", "@5(p=0.87)"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func TestCFMString(t *testing.T) {
	if got := (CFM{Kind: CFMReturn}).String(); got != "ret-cfm" {
		t.Errorf("return CFM string = %q", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := buildToy(t)
	p.Annots[1] = &DivergeInfo{
		CFMs:          []CFM{{Addr: 5, MergeProb: 0.875}, {Kind: CFMReturn}},
		Loop:          true,
		Short:         true,
		LoopExitTaken: true,
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	q, err := ReadProgram(&buf)
	if err != nil {
		t.Fatalf("ReadProgram: %v", err)
	}
	if len(q.Code) != len(p.Code) || q.Entry != p.Entry || q.GlobalWords != p.GlobalWords {
		t.Fatalf("header mismatch: %+v", q)
	}
	for i := range p.Code {
		if p.Code[i] != q.Code[i] {
			t.Errorf("inst %d: %v != %v", i, p.Code[i], q.Code[i])
		}
	}
	if len(q.Funcs) != len(p.Funcs) {
		t.Fatalf("funcs mismatch")
	}
	for i := range p.Funcs {
		if p.Funcs[i] != q.Funcs[i] {
			t.Errorf("func %d: %+v != %+v", i, p.Funcs[i], q.Funcs[i])
		}
	}
	d := q.Annots[1]
	if d == nil || !d.Loop || !d.Short || !d.LoopExitTaken || len(d.CFMs) != 2 {
		t.Fatalf("annot mismatch: %+v", d)
	}
	if d.CFMs[0].Addr != 5 || d.CFMs[0].MergeProb != 0.875 || d.CFMs[1].Kind != CFMReturn {
		t.Errorf("CFM mismatch: %+v", d.CFMs)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := ReadProgram(bytes.NewReader([]byte("not a binary at all........."))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadProgram(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid header with truncated body.
	p := buildToy(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProgram(bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Error("truncated body accepted")
	}
	// A header claiming more annotations than instructions is rejected
	// before the count sizes anything.
	bad := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(bad[24:], uint32(len(p.Code)+1)) // NumAnnots
	if _, err := ReadProgram(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "annotations for") {
		t.Errorf("annotation count above the instruction count: err = %v", err)
	}
}

// TestEncodeQuick round-trips randomly generated straight-line programs.
func TestEncodeQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%32) + 2
		b := NewBuilder()
		b.Func("main")
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				b.ALUI(OpAdd, uint8(1+rng.Intn(60)), uint8(rng.Intn(62)), rng.Int63n(1e9)-5e8)
			case 1:
				b.ALU(OpXor, uint8(1+rng.Intn(60)), uint8(rng.Intn(62)), uint8(rng.Intn(62)))
			case 2:
				b.MovI(uint8(1+rng.Intn(60)), rng.Int63()-rng.Int63())
			case 3:
				b.Ld(uint8(1+rng.Intn(60)), uint8(rng.Intn(62)), rng.Int63n(4096))
			case 4:
				b.St(uint8(rng.Intn(62)), rng.Int63n(4096), uint8(rng.Intn(62)))
			}
		}
		b.Halt()
		p, err := b.Link()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			return false
		}
		q, err := ReadProgram(&buf)
		if err != nil {
			return false
		}
		if len(q.Code) != len(p.Code) {
			return false
		}
		for i := range p.Code {
			if p.Code[i] != q.Code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
