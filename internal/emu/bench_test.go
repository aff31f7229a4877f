package emu_test

import (
	"errors"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/emu"
)

const benchEmuInsts = 1_000_000

// BenchmarkEmuRun measures the block-batched fast path (the engine behind
// profiling and pipeline trace generation) running compress to its halt
// (640,550 instructions at scale 1), within benchEmuInsts.
func BenchmarkEmuRun(b *testing.B) {
	b.ReportAllocs()
	w := bench.ByName("compress")
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(bench.RunInput, 1)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(prog, input, 0)
		n, err := m.Run(benchEmuInsts)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkStepBatch measures the pipeline's trace feed: the block executor
// recording trace entries in 256-entry batches, up to benchEmuInsts or the
// halt.
func BenchmarkStepBatch(b *testing.B) {
	b.ReportAllocs()
	w := bench.ByName("compress")
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(bench.RunInput, 1)
	buf := make([]emu.Trace, 256)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(prog, input, 0)
		for m.Retired < benchEmuInsts && !m.Halted() {
			if _, err := m.StepBatch(buf); err != nil {
				b.Fatal(err)
			}
		}
		insts += m.Retired
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkEmuStepRef measures the reference interpreter for comparison.
func BenchmarkEmuStepRef(b *testing.B) {
	b.ReportAllocs()
	w := bench.ByName("compress")
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(bench.RunInput, 1)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(prog, input, 0)
		for n := 0; n < benchEmuInsts; n++ {
			if _, err := m.StepRef(); err != nil {
				if errors.Is(err, emu.ErrHalted) {
					break
				}
				b.Fatal(err)
			}
		}
		insts += m.Retired
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}
