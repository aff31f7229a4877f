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
// instruction-count memo, so iterations measure the config-sweep steady
// state: one chained stream, no counting pass. Allocations per op are part
// of the benchgate contract: the stream must not accumulate per-interval
// garbage beyond the fixed machine + pipeline images.
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
