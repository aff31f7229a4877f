package emu_test

import (
	"runtime"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/emu"
)

// TestMachineAllocs pins the size of a machine: building one for a corpus
// program and running it to halt must allocate well under the 8 MiB a flat
// image of the default address space would take, because only the globals
// and the stack words the program actually writes are backed.
func TestMachineAllocs(t *testing.T) {
	const maxBytes = 1 << 20
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		input := b.Input(bench.RunInput, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := emu.New(prog, input, 0)
		if _, err := m.Run(0); err != nil {
			t.Fatalf("%s: run: %v", b.Name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= maxBytes {
			t.Errorf("%s: New plus a run to halt allocated %d bytes, want < %d", b.Name, got, maxBytes)
		}
	}
}

// TestStepBatchAllocs pins the trace feed allocation-free: once the first
// call has built the machine's trace recorder, a 256-entry StepBatch over a
// corpus program allocates nothing.
func TestStepBatchAllocs(t *testing.T) {
	b := bench.ByName("gcc")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := emu.New(prog, b.Input(bench.RunInput, 1), 0)
	buf := make([]emu.Trace, 256)
	batch := func() {
		if _, err := m.StepBatch(buf); err != nil {
			t.Fatalf("StepBatch: %v", err)
		}
	}
	batch()
	if n := testing.AllocsPerRun(200, batch); n != 0 {
		t.Errorf("StepBatch allocated %v times per 256-entry batch, want 0", n)
	}
}
