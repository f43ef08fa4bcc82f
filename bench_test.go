package splitft

// One testing.B benchmark over the experiment registry: every table, figure
// and sweep of internal/bench runs at QuickScale as a sub-benchmark (`go
// test -bench Benchmark/fig8`); cmd/splitft-bench runs the full-scale
// versions and prints the complete tables.

import (
	"testing"

	"splitft/internal/bench"
	"splitft/internal/modelcheck"
)

func Benchmark(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(bench.QuickScale(), 1)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(rep.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkModelCheck — state-exploration rate of the protocol checker.
func BenchmarkModelCheck(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		res := modelcheck.Check(modelcheck.DefaultConfig())
		if res.Violation != nil {
			b.Fatal("correct protocol flagged")
		}
		total = res.States
	}
	b.ReportMetric(float64(total), "states")
}
