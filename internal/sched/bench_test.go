package sched

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// spin burns roughly n floating-point operations, standing in for the
// per-increment cost of a real sampling simulation (an MD trajectory
// segment in the paper's TIP4P study).
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = math.Sqrt(x + float64(i&7))
	}
	return x
}

// BenchmarkBatch measures one DoN over a d+3-sized batch of expensive
// evaluations (d=13 => 16 tasks) at increasing worker counts. The serial
// (workers=1) row is the baseline the concurrent rows are compared against;
// the acceptance target is >= 2x at 4 workers on a multi-core host.
func BenchmarkBatch(b *testing.B) {
	const batch = 16
	const work = 200_000
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := New(Config{Workers: workers})
			defer s.Close()
			sink := make([]float64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.DoN(context.Background(), batch, func(j int) {
					sink[j] = spin(work)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDispatchOverhead measures the pure scheduling cost with empty
// tasks: what a batch pays when the objective is too cheap to parallelize.
func BenchmarkDispatchOverhead(b *testing.B) {
	s := New(Config{Workers: 4})
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.DoN(context.Background(), 16, func(int) {}); err != nil {
			b.Fatal(err)
		}
	}
}
