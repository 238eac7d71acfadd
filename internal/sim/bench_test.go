package sim

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/testfunc"
)

// burn is the simulated per-increment CPU cost of an expensive objective
// (the stand-in for one MD trajectory segment).
func burn(n int) func([]float64, float64) {
	return func([]float64, float64) {
		x := 1.0
		for i := 0; i < n; i++ {
			x = math.Sqrt(x + float64(i&7))
		}
		if x < 0 {
			panic("unreachable")
		}
	}
}

// BenchmarkSampleBatchExpensive measures one SampleBatch over a d+3 = 16 point
// batch of an expensive objective at increasing worker counts; workers=1 is
// the serial baseline of the pre-sched code path. The acceptance target is
// >= 2x speedup at 4 workers on a multi-core host.
func BenchmarkSampleBatchExpensive(b *testing.B) {
	const batch = 16
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := NewLocalSpace(LocalConfig{
				Dim:        3,
				F:          testfunc.Rosenbrock,
				Sigma0:     ConstSigma(10),
				Seed:       1,
				Parallel:   true,
				Workers:    workers,
				SampleCost: burn(200_000),
			})
			defer s.Close()
			pts := make([]Point, batch)
			for i := range pts {
				pts[i] = s.NewPoint([]float64{float64(i), 1, 2})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SampleBatch(ctx, pts, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleBatchLatencyBound models the paper's deployment shape: each
// sampling increment waits on an external simulation (a remote MD worker, a
// file-spool round-trip) rather than burning local CPU. Concurrent dispatch
// overlaps those latencies, so the batch completes in ~batch/workers of the
// serial time even on a single-core host — this is the benchmark that
// demonstrates the scheduler's >= 2x win at 4+ workers regardless of core
// count. (BenchmarkSampleBatchExpensive is the CPU-bound variant; it scales
// with physical cores only.)
func BenchmarkSampleBatchLatencyBound(b *testing.B) {
	const batch = 16
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := NewLocalSpace(LocalConfig{
				Dim:        3,
				F:          testfunc.Rosenbrock,
				Sigma0:     ConstSigma(10),
				Seed:       1,
				Parallel:   true,
				Workers:    workers,
				SampleCost: func([]float64, float64) { time.Sleep(200 * time.Microsecond) },
			})
			defer s.Close()
			pts := make([]Point, batch)
			for i := range pts {
				pts[i] = s.NewPoint([]float64{float64(i), 1, 2})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SampleBatch(ctx, pts, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleBatchCheapWorkers measures the scheduling overhead when the
// objective is too cheap to parallelize (pure noise draws): the cost a
// scheduler must not add to light workloads.
func BenchmarkSampleBatchCheapWorkers(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := NewLocalSpace(LocalConfig{
				Dim:      3,
				F:        testfunc.Rosenbrock,
				Sigma0:   ConstSigma(10),
				Seed:     1,
				Parallel: true,
				Workers:  workers,
			})
			defer s.Close()
			pts := make([]Point, 16)
			for i := range pts {
				pts[i] = s.NewPoint([]float64{float64(i), 1, 2})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SampleBatch(ctx, pts, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleBatchCheap is the dispatch-vs-draw ratio of a cost-free
// batch at the widths a d = 3..20 simplex step produces. in-caller is what a
// cost-free space does with an offered pool; shared-pool-before-shape is
// what it did before the grain decided — the same draws pushed through the
// pool, here by a SampleCost that costs nothing.
func BenchmarkSampleBatchCheap(b *testing.B) {
	ctx := context.Background()
	pool := sched.New(sched.Config{})
	defer pool.Close()
	for _, shape := range []struct {
		name string
		cost func([]float64, float64)
	}{{"shared-pool-before-shape", noCost}, {"in-caller", nil}} {
		for _, n := range []int{4, 12, 22} {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				s := NewLocalSpace(LocalConfig{
					Dim: 3, F: testfunc.Rosenbrock, Sigma0: ConstSigma(10), Seed: 1, Parallel: true,
					Pool: pool, SampleCost: shape.cost,
				})
				pts := make([]Point, n)
				for i := range pts {
					pts[i] = s.NewPoint([]float64{float64(i), 1, 2})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.SampleBatch(ctx, pts, 0.1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPointLifecycle is the trial-point shape of a simplex iteration:
// create a point, draw three increments, discard it. Seeding the point's
// noise stream is part of it, so this is where O(1) seeding shows (the
// steady-state draw has its own benchmark in internal/noise).
func BenchmarkPointLifecycle(b *testing.B) {
	s := NewLocalSpace(LocalConfig{Dim: 3, F: testfunc.Rosenbrock, Sigma0: ConstSigma(10), Seed: 1, Parallel: true})
	defer s.Close()
	x := []float64{0.5, 1, 2}
	ctx := context.Background()
	batch := make([]Point, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch[0] = s.NewPoint(x)
		for k := 0; k < 3; k++ {
			if err := s.SampleBatch(ctx, batch, 0.1); err != nil {
				b.Fatal(err)
			}
		}
		batch[0].Close()
	}
}
