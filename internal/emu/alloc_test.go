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
