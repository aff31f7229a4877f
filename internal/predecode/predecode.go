// Package predecode lowers an isa.Program's code segment into a flat,
// execution-oriented form that is computed once per run and then consumed by
// every layer that previously re-interpreted isa.Inst per retired
// instruction:
//
//   - the emulator fast path dispatches on a dense exec Kind with the
//     reg-vs-imm operand choice and the writeback predicate (Rd != RegZero)
//     folded into the kind, so the per-instruction switch has no operand-form
//     or destination tests left;
//   - straight-line batching uses NextCtl, the address of the first
//     control-flow (or undecodable) instruction at or after each pc, so a
//     block of ordinary instructions executes without per-instruction PC
//     bounds checks or branch-class tests;
//   - the pipeline's dispatch stage reads the pre-computed source-register
//     list (NR/R1/R2), destination register (Rd) and latency class (Lat)
//     instead of re-deriving them through isa.Inst.Reads/Writes switches.
//
// The lowering is purely mechanical: it never changes semantics, only
// representation. Instructions that the reference interpreter would fault on
// (undefined opcodes) lower to KBad and fault identically when executed.
package predecode

import (
	"dmp/internal/isa"
	"dmp/internal/memo"
)

// Kind is the dense execution kind the emulator fast path dispatches on.
// Arithmetic opcodes are split into register-register (RR) and
// register-immediate (RI) kinds so the UseImm test disappears from the hot
// loop, and pure register writes to R0 (architecturally no-ops) lower to
// KNop. Loads and input reads with Rd == R0 keep their side effects
// (bounds check and trace address, tape consumption) through dedicated
// no-writeback kinds.
type Kind uint8

const (
	KNop Kind = iota
	KAddRR
	KAddRI
	KSubRR
	KSubRI
	KMulRR
	KMulRI
	KDivRR
	KDivRI
	KRemRR
	KRemRI
	KAndRR
	KAndRI
	KOrRR
	KOrRI
	KXorRR
	KXorRI
	KShlRR
	KShlRI
	KShrRR
	KShrRI
	KCmpEQRR
	KCmpEQRI
	KCmpNERR
	KCmpNERI
	KCmpLTRR
	KCmpLTRI
	KCmpLERR
	KCmpLERI
	KCmpGTRR
	KCmpGTRI
	KCmpGERR
	KCmpGERI
	KMovI
	KMov
	KLd
	KLdNoWB
	KSt
	KBeqz
	KBnez
	KJmp
	KCall
	KCallR
	KRet
	KJr
	KIn
	KInNoWB
	KInAvail
	KOut
	KHalt
	// KBad marks an undecodable instruction; executing it reproduces the
	// reference interpreter's "unimplemented opcode" fault.
	KBad
	NumKinds
)

// Latency classes consumed by the pipeline's execution-latency model.
const (
	LatALU uint8 = iota
	LatMul
	LatDiv
	LatLoad
)

// Rec flag bits.
const (
	// FlagCondBranch marks conditional branches (beqz/bnez).
	FlagCondBranch uint8 = 1 << iota
	// FlagControl marks instructions that can change the PC (isa.IsControl).
	FlagControl
)

// Rec is the predecoded form of one instruction. All decisions that depend
// only on the static instruction word are resolved here, once.
type Rec struct {
	// Kind selects the exec handler; operand form and writeback predicate
	// are already folded in.
	Kind Kind
	// NR is the number of valid source registers in R1/R2 (0..2).
	NR uint8
	// R1 and R2 are the source registers (R1 valid when NR >= 1, R2 when
	// NR == 2). Stores keep base in R1 and value in R2; ret reads the link
	// register through R1.
	R1, R2 uint8
	// Rd is the destination register, 0 when the instruction writes no
	// general register (matching isa.Inst.Writes semantics: writes to R0
	// report no destination, calls write the link register).
	Rd uint8
	// Lat is the latency class (LatALU/LatMul/LatDiv/LatLoad).
	Lat uint8
	// Flags holds FlagCondBranch/FlagControl.
	Flags uint8
	// Imm is the immediate operand: the pre-selected second source for RI
	// arithmetic, the load/store displacement, or the movi value.
	Imm int64
	// Target is the absolute target of direct control flow.
	Target int32
	// NextCtl is the pc of the first instruction at or after this one that
	// ends a straight-line run (control flow or KBad), or len(code) when
	// the code segment ends first. For such enders NextCtl == their own pc.
	NextCtl int32
}

// IsCondBranch reports whether the record is a conditional branch.
func (r *Rec) IsCondBranch() bool { return r.Flags&FlagCondBranch != 0 }

// IsControl reports whether the record can change the PC.
func (r *Rec) IsControl() bool { return r.Flags&FlagControl != 0 }

// Program is a predecoded code segment.
type Program struct {
	// Recs has one record per instruction, parallel to Program.Code.
	Recs []Rec
}

// aluKinds maps an arithmetic opcode to its RR kind; the RI kind is always
// the next enumerator.
var aluKinds = map[isa.Op]Kind{
	isa.OpAdd: KAddRR, isa.OpSub: KSubRR, isa.OpMul: KMulRR,
	isa.OpDiv: KDivRR, isa.OpRem: KRemRR, isa.OpAnd: KAndRR,
	isa.OpOr: KOrRR, isa.OpXor: KXorRR, isa.OpShl: KShlRR,
	isa.OpShr: KShrRR, isa.OpCmpEQ: KCmpEQRR, isa.OpCmpNE: KCmpNERR,
	isa.OpCmpLT: KCmpLTRR, isa.OpCmpLE: KCmpLERR, isa.OpCmpGT: KCmpGTRR,
	isa.OpCmpGE: KCmpGERR,
}

// sharedMemo caches Compile results by code-segment identity (&Code[0]):
// predecoding is a pure function of the code slice, and WithAnnots shares the
// code array across a binary's annotation variants, so one compiled program
// serves every machine the harness (or a config sweep) creates for it. The
// memo's bound is also the number of dead programs a compile loop can pin:
// one that compiles fresh binaries of the same sources (every toolchain
// pass, every daemon job) never hits across iterations. A generated
// program's code array and records take about 11 KB, so 8192 entries could
// pin some 90 MB.
var sharedMemo = memo.Bounded[*isa.Inst, *Program]{Cap: 1024}

// Shared returns the predecoded form of p, memoized by code-segment
// identity. Programs with empty code compile fresh (no identity to key on).
func Shared(p *isa.Program) *Program {
	if len(p.Code) == 0 {
		return Compile(p)
	}
	return sharedMemo.Get(&p.Code[0], func() *Program { return Compile(p) })
}

// Compile lowers the program's code segment. It is a single linear pass; the
// cost is paid once per machine, against millions of executed instructions.
func Compile(p *isa.Program) *Program {
	recs := make([]Rec, len(p.Code))
	for pc, in := range p.Code {
		recs[pc] = lower(in)
	}
	// Back-propagate straight-line run boundaries.
	next := int32(len(p.Code))
	for pc := len(recs) - 1; pc >= 0; pc-- {
		r := &recs[pc]
		if r.IsControl() || r.Kind == KBad {
			next = int32(pc)
		}
		r.NextCtl = next
	}
	return &Program{Recs: recs}
}

// lower translates one instruction word.
func lower(in isa.Inst) Rec {
	r := Rec{Imm: in.Imm, Target: int32(in.Target)}
	if k, ok := aluKinds[in.Op]; ok {
		r.NR = srcRegs(&r, in)
		switch in.Op {
		case isa.OpMul:
			r.Lat = LatMul
		case isa.OpDiv, isa.OpRem:
			r.Lat = LatDiv
		}
		if in.Rd == isa.RegZero {
			// A pure ALU write to R0 has no architectural effect; the
			// emulator skips it entirely while the pipeline still sees its
			// reads and latency class.
			r.Kind = KNop
			return r
		}
		r.Rd = in.Rd
		if in.UseImm {
			r.Kind = k + 1
		} else {
			r.Kind = k
		}
		return r
	}
	switch in.Op {
	case isa.OpNop:
		r.Kind = KNop
	case isa.OpMovI:
		if in.Rd == isa.RegZero {
			return Rec{Kind: KNop, Imm: in.Imm}
		}
		r.Kind, r.Rd = KMovI, in.Rd
	case isa.OpMov:
		r.NR, r.R1 = 1, in.Rs1
		if in.Rd == isa.RegZero {
			r.Kind = KNop
		} else {
			r.Kind, r.Rd = KMov, in.Rd
		}
	case isa.OpLd:
		r.NR, r.R1, r.Lat = 1, in.Rs1, LatLoad
		if in.Rd == isa.RegZero {
			r.Kind = KLdNoWB
		} else {
			r.Kind, r.Rd = KLd, in.Rd
		}
	case isa.OpSt:
		r.Kind, r.NR, r.R1, r.R2 = KSt, 2, in.Rs1, in.Rs2
	case isa.OpBeqz:
		r.Kind, r.NR, r.R1, r.Flags = KBeqz, 1, in.Rs1, FlagCondBranch|FlagControl
	case isa.OpBnez:
		r.Kind, r.NR, r.R1, r.Flags = KBnez, 1, in.Rs1, FlagCondBranch|FlagControl
	case isa.OpJmp:
		r.Kind, r.Flags = KJmp, FlagControl
	case isa.OpCall:
		r.Kind, r.Rd, r.Flags = KCall, isa.RegLR, FlagControl
	case isa.OpCallR:
		r.Kind, r.NR, r.R1, r.Rd, r.Flags = KCallR, 1, in.Rs1, isa.RegLR, FlagControl
	case isa.OpRet:
		r.Kind, r.NR, r.R1, r.Flags = KRet, 1, isa.RegLR, FlagControl
	case isa.OpJr:
		r.Kind, r.NR, r.R1, r.Flags = KJr, 1, in.Rs1, FlagControl
	case isa.OpIn:
		if in.Rd == isa.RegZero {
			r.Kind = KInNoWB // still consumes the tape
		} else {
			r.Kind, r.Rd = KIn, in.Rd
		}
	case isa.OpInAvail:
		if in.Rd == isa.RegZero {
			r.Kind = KNop
		} else {
			r.Kind, r.Rd = KInAvail, in.Rd
		}
	case isa.OpOut:
		r.Kind, r.NR, r.R1 = KOut, 1, in.Rs1
	case isa.OpHalt:
		r.Kind, r.Flags = KHalt, FlagControl
	default:
		r.Kind = KBad
	}
	return r
}

// srcRegs fills the source-register fields for an arithmetic instruction and
// returns the read count.
func srcRegs(r *Rec, in isa.Inst) uint8 {
	r.R1 = in.Rs1
	if in.UseImm {
		return 1
	}
	r.R2 = in.Rs2
	return 2
}
