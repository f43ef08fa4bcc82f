package simnet

import "testing"

// BenchmarkScheduler runs every scheduler micro-workload (workloads.go) at
// n = b.N, reporting ns/op and allocs/op per operation. CI runs it
// non-gating so the trajectory stays visible.
func BenchmarkScheduler(b *testing.B) {
	for _, w := range Workloads {
		b.Run(w.Name, func(b *testing.B) {
			s := New(1)
			w.Spawn(s, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
