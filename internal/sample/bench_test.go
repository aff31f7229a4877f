package sample_test

import (
	"context"
	"testing"

	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// BenchmarkSampledRun measures the steady-state cost of a sampled simulation
// of the gzip corpus benchmark at the default SampleConf — the configuration
// every sampled evaluation gate runs at. The first (untimed) run primes the
// instruction-count memo, so iterations measure one warm walk and its
// intervals, no counting pass. Allocations per op are part of the benchgate
// contract: the run must not accumulate per-interval garbage beyond the
// fixed machine, table and pipeline images.
func BenchmarkSampledRun(b *testing.B) {
	prog, input := compileBench(b, "gzip")
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()
	r, err := sample.Run(context.Background(), prog, input, cfg, sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.Run(context.Background(), prog, input, cfg, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.TotalInsts)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSampledCells measures one RunCells call over gzip and the
// 16-cell sampled sweep grid (ROBSize × ConfThreshold × FetchWidth × DMP):
// one warm walk serving every cell's intervals. insts/s counts each cell's
// instructions, so it compares directly with BenchmarkSampledRun's.
func BenchmarkSampledCells(b *testing.B) {
	input, cells := gridCells(b, "gzip", pipeline.DefaultConfig())
	sc := sample.DefaultConf()
	rs, err := sample.RunCells(context.Background(), input, cells, sc)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	for _, r := range rs {
		insts += r.TotalInsts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.RunCells(context.Background(), input, cells, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}
