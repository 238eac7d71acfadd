package mw

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// BenchmarkTaskRoundTrip measures the full MW dispatch cost: submit, pack,
// execute on a worker, pack result, collect.
func BenchmarkTaskRoundTrip(b *testing.B) {
	d, err := NewDriver(Config{
		Workers:   4,
		NewTask:   func() Task { return &echoTask{} },
		NewWorker: func(rank int) Worker { return &echoWorker{} },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Shutdown()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := d.Submit(&echoTask{In: float64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexPipelineSample measures one sampling op through the whole
// two-level stack: worker -> conduit -> server -> client -> back.
func BenchmarkVertexPipelineSample(b *testing.B) {
	vw, err := NewVertexWorker(VertexWorkerConfig{
		Ns: 1,
		NewSystem: func(sys int) SystemEvaluator {
			return &FuncSystem{
				F:      testfunc.Rosenbrock,
				Sigma0: func([]float64) float64 { return 1 },
				Rng:    rand.New(rand.NewSource(1)),
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer vw.Close()
	if err := vw.Execute(NewStartOp([]float64{1, 2, 3})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := vw.Execute(NewSampleOp(0.1)); err != nil {
			b.Fatal(err)
		}
	}
}

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
