package emu

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dmp/internal/isa"
)

// compile assembles with the builder and fails the test on error.
func link(t *testing.T, build func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	build(b)
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.OpAdd, 3, 4, 7},
		{isa.OpSub, 3, 4, -1},
		{isa.OpMul, 3, 4, 12},
		{isa.OpDiv, 12, 4, 3},
		{isa.OpDiv, 12, 0, 0},
		{isa.OpDiv, -7, 2, -3},
		{isa.OpRem, 12, 5, 2},
		{isa.OpRem, 12, 0, 0},
		{isa.OpAnd, 0b1100, 0b1010, 0b1000},
		{isa.OpOr, 0b1100, 0b1010, 0b1110},
		{isa.OpXor, 0b1100, 0b1010, 0b0110},
		{isa.OpShl, 3, 2, 12},
		{isa.OpShr, -8, 1, -4},
		{isa.OpShl, 1, 64, 1}, // shift amount masked to 6 bits
		{isa.OpCmpEQ, 5, 5, 1},
		{isa.OpCmpEQ, 5, 6, 0},
		{isa.OpCmpNE, 5, 6, 1},
		{isa.OpCmpLT, -1, 0, 1},
		{isa.OpCmpLE, 0, 0, 1},
		{isa.OpCmpGT, 1, 0, 1},
		{isa.OpCmpGE, -1, 0, 0},
	}
	for _, c := range cases {
		p := link(t, func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, c.a)
			b.MovI(2, c.b)
			b.ALU(c.op, 3, 1, 2)
			b.Out(3)
			b.Halt()
		})
		m := New(p, nil, 0)
		if _, err := m.Run(100); err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if m.Output[0] != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, m.Output[0], c.want)
		}
	}
}

func TestImmediateOperand(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, 10)
		b.ALUI(isa.OpSub, 2, 1, 3)
		b.Out(2)
		b.Halt()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Output[0] != 7 {
		t.Errorf("10-3 = %d", m.Output[0])
	}
}

func TestR0HardwiredZero(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(0, 42) // write to r0 must be discarded
		b.Out(0)
		b.Halt()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Output[0] != 0 {
		t.Errorf("r0 = %d, want 0", m.Output[0])
	}
}

func TestBranchesAndTrace(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, 0)
		b.Beqz(1, "taken")
		b.MovI(2, 111) // skipped
		b.Label("taken")
		b.MovI(3, 1)
		b.Bnez(3, "t2")
		b.MovI(2, 222) // skipped
		b.Label("t2")
		b.Out(2)
		b.Halt()
	})
	m := New(p, nil, 0)
	var branches []Trace
	for !m.Halted() {
		tr, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if p.Code[tr.PC].IsCondBranch() {
			branches = append(branches, tr)
		}
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	if !branches[0].Taken || branches[0].NextPC != p.Code[branches[0].PC].Target {
		t.Errorf("beqz trace = %+v", branches[0])
	}
	if !branches[1].Taken {
		t.Errorf("bnez trace = %+v", branches[1])
	}
	if m.Output[0] != 0 {
		t.Errorf("output = %d, want 0 (both movs skipped)", m.Output[0])
	}
}

func TestCallRet(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, 5)
		b.Call("double")
		b.Out(1)
		b.Halt()
		b.Func("double")
		b.ALU(isa.OpAdd, 1, 1, 1)
		b.Ret()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Output[0] != 10 {
		t.Errorf("double(5) = %d", m.Output[0])
	}
}

func TestNestedCallsWithStack(t *testing.T) {
	// fib(10) via recursion with manual LR/arg spilling on the stack.
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, 10)
		b.Call("fib")
		b.Out(1)
		b.Halt()
		b.Func("fib")
		// if n < 2 return n
		b.ALUI(isa.OpCmpLT, 2, 1, 2)
		b.Beqz(2, "rec")
		b.Ret()
		b.Label("rec")
		// push LR, n
		b.ALUI(isa.OpSub, isa.RegSP, isa.RegSP, 2)
		b.St(isa.RegSP, 0, isa.RegLR)
		b.St(isa.RegSP, 1, 1)
		b.ALUI(isa.OpSub, 1, 1, 1)
		b.Call("fib") // fib(n-1) in r1
		b.Ld(3, isa.RegSP, 1)
		b.St(isa.RegSP, 1, 1) // save fib(n-1), reload n
		b.ALUI(isa.OpSub, 1, 3, 2)
		b.Call("fib") // fib(n-2) in r1
		b.Ld(3, isa.RegSP, 1)
		b.ALU(isa.OpAdd, 1, 1, 3)
		b.Ld(isa.RegLR, isa.RegSP, 0)
		b.ALUI(isa.OpAdd, isa.RegSP, isa.RegSP, 2)
		b.Ret()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.Output[0] != 55 {
		t.Errorf("fib(10) = %d, want 55", m.Output[0])
	}
}

func TestLoadStore(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.SetGlobals(8)
		b.Func("main")
		b.MovI(1, 7)
		b.MovI(2, 3) // address
		b.St(2, 1, 1)
		b.Ld(3, 2, 1)
		b.Out(3)
		b.Halt()
	})
	m := New(p, nil, 0)
	var addrs []int64
	for !m.Halted() {
		tr, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if op := p.Code[tr.PC].Op; op == isa.OpLd || op == isa.OpSt {
			addrs = append(addrs, tr.Addr)
		}
	}
	if m.Output[0] != 7 {
		t.Errorf("load = %d", m.Output[0])
	}
	if len(addrs) != 2 || addrs[0] != 4 || addrs[1] != 4 {
		t.Errorf("trace addrs = %v", addrs)
	}
}

func TestMemoryFaults(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, -5)
		b.Ld(2, 1, 0)
		b.Halt()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(10); err == nil {
		t.Error("negative load address not faulted")
	}

	p = link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, 1<<40)
		b.St(1, 0, 1)
		b.Halt()
	})
	m = New(p, nil, 0)
	if _, err := m.Run(10); err == nil {
		t.Error("out-of-range store address not faulted")
	}
}

func TestBadControlTransfer(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(isa.RegLR, 9999)
		b.Ret()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(10); err == nil {
		t.Error("wild return not faulted")
	}
}

func TestInputTape(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.Label("loop")
		b.InAvail(1)
		b.Beqz(1, "done")
		b.In(2)
		b.Out(2)
		b.Jmp("loop")
		b.Label("done")
		b.In(3) // EOF read yields 0
		b.Out(3)
		b.Halt()
	})
	m := New(p, []int64{4, 5, 6}, 0)
	if m.InputRemaining() != 3 {
		t.Errorf("InputRemaining = %d", m.InputRemaining())
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 5, 6, 0}
	if len(m.Output) != len(want) {
		t.Fatalf("output = %v", m.Output)
	}
	for i, v := range want {
		if m.Output[i] != v {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], v)
		}
	}
	if m.InputRemaining() != 0 {
		t.Errorf("InputRemaining after run = %d", m.InputRemaining())
	}
}

func TestHaltSemantics(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.Halt()
	})
	m := New(p, nil, 0)
	n, err := m.Run(0)
	if err != nil || n != 1 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	if !m.Halted() {
		t.Error("not halted")
	}
	if _, err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestRunInstLimit(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.Label("spin")
		b.Jmp("spin")
	})
	m := New(p, nil, 0)
	if _, err := m.Run(100); err == nil {
		t.Error("infinite loop not stopped by limit")
	}
}

func TestRetiredCounting(t *testing.T) {
	p := link(t, func(b *isa.Builder) {
		b.Func("main")
		b.MovI(1, 1)
		b.MovI(2, 2)
		b.Halt()
	})
	m := New(p, nil, 0)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Retired != 3 {
		t.Errorf("Retired = %d, want 3", m.Retired)
	}
}

func TestMemorySizing(t *testing.T) {
	b := isa.NewBuilder()
	b.SetGlobals(5000)
	b.Func("main")
	b.Halt()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, nil, 16) // too small: must be grown to cover globals
	if m.MemWords() < 5000+1024 {
		t.Errorf("memory not grown for globals: %d", m.MemWords())
	}
	if m.Regs[isa.RegSP] != int64(m.MemWords()) {
		t.Errorf("SP = %d, want %d", m.Regs[isa.RegSP], m.MemWords())
	}
}

// TestQuickALUAgainstGo cross-checks DISA arithmetic against Go semantics on
// random operand pairs.
func TestQuickALUAgainstGo(t *testing.T) {
	ops := []struct {
		op isa.Op
		f  func(a, b int64) int64
	}{
		{isa.OpAdd, func(a, b int64) int64 { return a + b }},
		{isa.OpSub, func(a, b int64) int64 { return a - b }},
		{isa.OpMul, func(a, b int64) int64 { return a * b }},
		{isa.OpAnd, func(a, b int64) int64 { return a & b }},
		{isa.OpOr, func(a, b int64) int64 { return a | b }},
		{isa.OpXor, func(a, b int64) int64 { return a ^ b }},
		{isa.OpDiv, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a / b
		}},
		{isa.OpRem, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a % b
		}},
	}
	f := func(a, b int64, opIdx uint8) bool {
		c := ops[int(opIdx)%len(ops)]
		bld := isa.NewBuilder()
		bld.Func("main")
		bld.MovI(1, a)
		bld.MovI(2, b)
		bld.ALU(c.op, 3, 1, 2)
		bld.Out(3)
		bld.Halt()
		p, err := bld.Link()
		if err != nil {
			return false
		}
		m := New(p, nil, 0)
		if _, err := m.Run(10); err != nil {
			return false
		}
		return m.Output[0] == c.f(a, b)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
