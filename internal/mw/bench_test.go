package mw

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// BenchmarkSpaceSampleBatch measures a full-deployment concurrent sampling
// round across d+3 workers.
func BenchmarkSpaceSampleBatch(b *testing.B) {
	const d = 8
	sp, err := NewSpace(SpaceConfig{
		Dim: d,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{
				F:      testfunc.Rosenbrock,
				Sigma0: func([]float64) float64 { return 1 },
				Rng:    rand.New(rand.NewSource(int64(rank))),
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Shutdown()
	pts := make([]sim.Point, d+1)
	x := make([]float64, d)
	for i := range pts {
		x[0] = float64(i)
		pts[i] = sp.NewPoint(x)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.SampleBatch(ctx, pts, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
