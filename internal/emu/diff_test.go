package emu_test

import (
	"errors"
	"fmt"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/lang"
)

// diffStep runs one-entry trace batches and the reference interpreter in
// lockstep, insisting on identical traces, identical faults, and identical
// architectural state. maxSteps == 0 means run to halt/fault.
func diffStep(t *testing.T, tag string, prog *isa.Program, input []int64, maxSteps uint64) {
	t.Helper()
	fast := emu.New(prog, input, 0)
	ref := emu.New(prog, input, 0)
	var steps uint64
	for maxSteps == 0 || steps < maxSteps {
		ft, ferr := fast.Step()
		rt, rerr := ref.StepRef()
		if !errsEqual(ferr, rerr) {
			t.Fatalf("%s: step %d: fast err %v, ref err %v", tag, steps, ferr, rerr)
		}
		if ferr != nil {
			break
		}
		if ft != rt {
			t.Fatalf("%s: step %d: fast trace %+v, ref trace %+v", tag, steps, ft, rt)
		}
		steps++
	}
	diffState(t, tag, fast, ref)
}

func diffState(t *testing.T, tag string, fast, ref *emu.Machine) {
	t.Helper()
	if fast.PC != ref.PC || fast.Retired != ref.Retired || fast.Halted() != ref.Halted() {
		t.Fatalf("%s: state diverged: fast pc=%d retired=%d halted=%v, ref pc=%d retired=%d halted=%v",
			tag, fast.PC, fast.Retired, fast.Halted(), ref.PC, ref.Retired, ref.Halted())
	}
	if fast.Regs != ref.Regs {
		t.Fatalf("%s: register files diverged", tag)
	}
	if fast.InputRemaining() != ref.InputRemaining() {
		t.Fatalf("%s: input cursor diverged: fast %d, ref %d", tag, fast.InputRemaining(), ref.InputRemaining())
	}
	if len(fast.Output) != len(ref.Output) {
		t.Fatalf("%s: output length diverged: fast %d, ref %d", tag, len(fast.Output), len(ref.Output))
	}
	for i := range fast.Output {
		if fast.Output[i] != ref.Output[i] {
			t.Fatalf("%s: output[%d] diverged: fast %d, ref %d", tag, i, fast.Output[i], ref.Output[i])
		}
	}
	if fast.MemWords() != ref.MemWords() {
		t.Fatalf("%s: memory size diverged: fast %d, ref %d", tag, fast.MemWords(), ref.MemWords())
	}
	if h1, h2 := memHash(fast), memHash(ref); h1 != h2 {
		t.Fatalf("%s: memory diverged: fast hash %#x, ref hash %#x", tag, h1, h2)
	}
}

// memHash hashes every word of m's address space, backed or not.
func memHash(m *emu.Machine) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for a := range int64(m.MemWords()) {
		w, _ := m.Load(a)
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

func errsEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestFastMatchesReferenceCorpus checks the fast path against the reference
// interpreter trace-for-trace over the full benchmark corpus on both input
// sets.
func TestFastMatchesReferenceCorpus(t *testing.T) {
	maxSteps := uint64(400_000)
	if testing.Short() {
		maxSteps = 50_000
	}
	for _, b := range bench.All() {
		for _, set := range []bench.InputSet{bench.RunInput, bench.TrainInput} {
			b, set := b, set
			t.Run(fmt.Sprintf("%s/%s", b.Name, set), func(t *testing.T) {
				t.Parallel()
				prog, err := b.Compile()
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				diffStep(t, b.Name, prog, b.Input(set, 1), maxSteps)
			})
		}
	}
}

// TestRunMatchesReference checks the block-batched Run loop against a
// step-by-step reference run for several instruction limits, including
// limits that cut a basic block mid-way and the limit-exceeded fault.
func TestRunMatchesReference(t *testing.T) {
	b := bench.ByName("compress")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.RunInput, 1)
	for _, limit := range []uint64{1, 2, 3, 7, 100, 12_345, 100_000_000} {
		fast := emu.New(prog, input, 0)
		ref := emu.New(prog, input, 0)
		n, ferr := fast.Run(limit)
		var rn uint64
		var rerr error
		for rn < limit {
			if _, err := ref.StepRef(); err != nil {
				if !errors.Is(err, emu.ErrHalted) {
					rerr = err
				}
				break
			}
			rn++
		}
		if rn == limit && !ref.Halted() {
			rerr = fmt.Errorf("emu: instruction limit %d exceeded", limit)
		}
		if !errsEqual(ferr, rerr) {
			t.Fatalf("limit %d: fast err %v, ref err %v", limit, ferr, rerr)
		}
		if n != rn {
			t.Fatalf("limit %d: fast retired %d, ref retired %d", limit, n, rn)
		}
		diffState(t, fmt.Sprintf("limit %d", limit), fast, ref)
	}
}

// diffStepBatch runs prog's trace feed, StepBatch, with successive batch
// sizes from size (at most 300) against the reference interpreter, and
// insists on the same entries, the same fault in the same position and the
// same final state. It stops at a fault, a halt, or once limit entries have
// been produced (limit == 0: no limit).
func diffStepBatch(t *testing.T, tag string, prog *isa.Program, input []int64, limit uint64, size func() uint64) {
	t.Helper()
	fast := emu.New(prog, input, 0)
	ref := emu.New(prog, input, 0)
	buf := make([]emu.Trace, 300)
	for total := uint64(0); limit == 0 || total < limit; {
		k, err := fast.StepBatch(buf[:int(size())])
		for i := range buf[:k] {
			rt, rerr := ref.StepRef()
			if rerr != nil {
				t.Fatalf("%s: entry %d: reference faulted behind the batch: %v", tag, total+uint64(i), rerr)
			}
			if buf[i] != rt {
				t.Fatalf("%s: entry %d = %+v, ref %+v", tag, total+uint64(i), buf[i], rt)
			}
		}
		total += uint64(k)
		if err != nil {
			if _, rerr := ref.StepRef(); !errsEqual(err, rerr) {
				t.Fatalf("%s: after %d entries: fast err %v, ref err %v", tag, total, err, rerr)
			}
			break
		}
	}
	diffState(t, tag, fast, ref)
}

// TestStepBatchMatchesReference checks StepBatch against StepRef for batch
// sizes that straddle block boundaries, including fault surfacing order.
func TestStepBatchMatchesReference(t *testing.T) {
	b := bench.ByName("gcc")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.RunInput, 1)
	for _, size := range []uint64{1, 3, 5, 64, 256} {
		diffStepBatch(t, fmt.Sprintf("size %d", size), prog, input, 200_000, fixed(size))
	}
}

// faultCases are hand-written programs exercising every fault path plus the
// effects-before-fault edge cases the reference interpreter defines.
var faultCases = []struct {
	name string
	code []isa.Inst
}{
	{"bad-opcode", []isa.Inst{{Op: isa.Op(250)}}},
	{"load-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1 << 40},
		{Op: isa.OpLd, Rd: 2, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"load-negative", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: -8},
		{Op: isa.OpLd, Rd: 2, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"load-to-r0", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 3},
		{Op: isa.OpLd, Rd: 0, Rs1: 1, Imm: 2},
		{Op: isa.OpOut, Rs1: 0},
		{Op: isa.OpHalt},
	}},
	{"load-to-r0-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1 << 40},
		{Op: isa.OpLd, Rd: 0, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"store-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1 << 40},
		{Op: isa.OpSt, Rs1: 1, Rs2: 2},
		{Op: isa.OpHalt},
	}},
	{"jump-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 9999},
		{Op: isa.OpJr, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"callr-oor-writes-lr", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: -3},
		{Op: isa.OpCallR, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"fall-off-end", []isa.Inst{
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 1},
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 2},
	}},
	// The last instruction executes, is not retired, and reports no event;
	// the load or store before it retires and reports one.
	{"fall-off-end-load", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 3},
		{Op: isa.OpLd, Rd: 2, Rs1: 1},
		{Op: isa.OpLd, Rd: 3, Rs1: 1, Imm: 1},
	}},
	{"fall-off-end-load-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1 << 40},
		{Op: isa.OpLd, Rd: 2, Rs1: 1},
	}},
	{"fall-off-end-store", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 3},
		{Op: isa.OpMovI, Rd: 2, Imm: 9},
		{Op: isa.OpSt, Rs1: 1, Rs2: 2},
		{Op: isa.OpSt, Rs1: 1, Rs2: 2, Imm: 700},
	}},
	{"fall-off-end-out", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 4},
		{Op: isa.OpOut, Rs1: 1},
	}},
	{"branch-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpBnez, Rs1: 1, Target: 77},
		{Op: isa.OpHalt},
	}},
	{"div-by-zero", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 10},
		{Op: isa.OpDiv, Rd: 2, Rs1: 1, Rs2: 0},
		{Op: isa.OpRem, Rd: 3, Rs1: 1, Rs2: 0},
		{Op: isa.OpOut, Rs1: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpHalt},
	}},
	{"div-minint-by-minus1", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpShl, Rd: 1, Rs1: 1, UseImm: true, Imm: 63},
		{Op: isa.OpMovI, Rd: 2, Imm: -1},
		{Op: isa.OpDiv, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpRem, Rd: 4, Rs1: 1, Rs2: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpHalt},
	}},
	{"shift-mask", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpMovI, Rd: 2, Imm: 65},
		{Op: isa.OpShl, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpShr, Rd: 4, Rs1: 3, Rs2: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpHalt},
	}},
	{"input-eof", []isa.Inst{
		{Op: isa.OpIn, Rd: 1},
		{Op: isa.OpIn, Rd: 2},
		{Op: isa.OpIn, Rd: 3},
		{Op: isa.OpInAvail, Rd: 4},
		{Op: isa.OpOut, Rs1: 1},
		{Op: isa.OpOut, Rs1: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpHalt},
	}},
	{"input-to-r0-consumes", []isa.Inst{
		{Op: isa.OpIn, Rd: 0},
		{Op: isa.OpIn, Rd: 1},
		{Op: isa.OpOut, Rs1: 1},
		{Op: isa.OpHalt},
	}},
}

// TestFaultEquivalence checks every fault path produces the same error, the
// same parked PC, and the same partially-applied effects on the block
// executor — through one-entry trace batches, in one call, and one
// instruction per call — as on the reference interpreter.
func TestFaultEquivalence(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := &isa.Program{Code: tc.code}
			diffStep(t, tc.name, prog, []int64{5, 6}, 0)
			diffRunBlocks(t, tc.name+"/blocks", prog, []int64{5, 6}, 0, fixed(0))
			diffRunBlocks(t, tc.name+"/blocks-by-1", prog, []int64{5, 6}, 0, fixed(1))
		})
	}
}

// TestStepBatchFaults checks the batched path surfaces the same faults in
// the same position as the reference interpreter.
func TestStepBatchFaults(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			diffStepBatch(t, tc.name, &isa.Program{Code: tc.code}, []int64{5, 6}, 0, fixed(4))
		})
	}
}

// midMemorySource stores through an unchecked array index into the middle of
// the address space, far from the globals and the stack, so the fuzzer starts
// from a program that makes the emulator back words it does not back up front.
const midMemorySource = `var pad[4];
func main() {
    var i = 0;
    var s = 0;
    while (inavail()) {
        var v = in();
        pad[300000 + (v & 4095) * 64] = v;
        s = s + pad[300000 + (i & 4095) * 64];
        i = i + 1;
    }
    out(s);
}
`

// FuzzEmuDiff feeds generated DML programs (seeded by the corpus generator's
// default mix plus the biased-branch and deep-hammock presets) through the
// compiler and runs one-entry trace batches and the reference interpreter in
// lockstep, then the trace feed under a batch-size sequence and the block
// executor with every hook under a budget sequence, both drawn from
// tapeSeed. Mutated sources that no longer parse or check are skipped;
// anything that compiles must execute identically on every path.
func FuzzEmuDiff(f *testing.F) {
	f.Add(midMemorySource, int64(1))
	for seed := int64(0); seed < 8; seed++ {
		f.Add(bench.GenSource(seed), int64(seed))
	}
	for _, preset := range []string{"biased-branch", "deep-hammock"} {
		conf, ok := gen.Preset(preset)
		if !ok {
			f.Fatalf("preset %s missing", preset)
		}
		for seed := uint64(0); seed < 6; seed++ {
			f.Add(gen.Build(conf, seed).Source, int64(seed))
		}
	}
	f.Fuzz(func(t *testing.T, src string, tapeSeed int64) {
		file, err := lang.Parse(src)
		if err != nil {
			t.Skip()
		}
		if err := lang.Check(file); err != nil {
			t.Skip()
		}
		prog, err := codegen.CompileSource(src)
		if err != nil {
			t.Skip()
		}
		if err := prog.Validate(); err != nil {
			t.Skip()
		}
		input := make([]int64, 64)
		for i := range input {
			input[i] = tapeSeed*2654435761 + int64(i)*37
		}
		fast := emu.New(prog, input, 0)
		ref := emu.New(prog, input, 0)
		// Cap the lockstep run so individual fuzz execs stay fast; the
		// corpus differential test covers long executions.
		for steps := 0; steps < 200_000; steps++ {
			ft, ferr := fast.Step()
			rt, rerr := ref.StepRef()
			if !errsEqual(ferr, rerr) {
				t.Fatalf("step %d: fast err %v, ref err %v", steps, ferr, rerr)
			}
			if ferr != nil {
				break
			}
			if ft != rt {
				t.Fatalf("step %d: fast trace %+v, ref trace %+v", steps, ft, rt)
			}
		}
		diffState(t, "fuzz", fast, ref)

		// Batches of 1 to 300 entries, every fourth one the pipeline's 256.
		y := uint64(tapeSeed)*0xBF58476D1CE4E5B9 | 1
		diffStepBatch(t, "fuzz/batch", prog, input, 200_000, func() uint64 {
			y ^= y << 13
			y ^= y >> 7
			y ^= y << 17
			if y%4 == 0 {
				return 256
			}
			return 1 + y%300
		})

		// Budgets from 1 to 128 instructions, every eighth call unlimited
		// up to the cap, so runs are cut at arbitrary offsets.
		x := uint64(tapeSeed)*0x9E3779B97F4A7C15 | 1
		diffRunBlocks(t, "fuzz/blocks", prog, input, 200_000, func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x%8 == 0 {
				return 0
			}
			return 1 + x%128
		})
	})
}
