package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// start3 is the dim-3 starting simplex of the iteration benchmarks.
var start3 = [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}

// BenchmarkIterationDET measures the cost of one deterministic simplex
// iteration including sampling bookkeeping.
func BenchmarkIterationDET(b *testing.B) {
	benchIterations(b, DET, 0, start3, 50, nil)
}

// BenchmarkIterationMN includes the max-noise wait machinery.
func BenchmarkIterationMN(b *testing.B) {
	benchIterations(b, MN, 50, start3, 50, nil)
}

// BenchmarkIterationPC includes the confidence comparisons and resampling.
// The dim8-400 row is one job of the shape ckpt_stream runs (400 pc
// iterations); with -benchmem its B/op and allocs/op are per job. The
// dim8-400-traced row adds a Trace callback that keeps its own copy of each
// event, as the jobs layer does for its subscribers, so the per-iteration
// trace is on the measured path too.
func BenchmarkIterationPC(b *testing.B) {
	b.Run("dim3-50", func(b *testing.B) { benchIterations(b, PC, 50, start3, 50, nil) })
	start8 := initSimplex(8, -3, 3, rand.New(noise.NewSource(8)))
	b.Run("dim8-400", func(b *testing.B) { benchIterations(b, PC, 50, start8, 400, nil) })
	b.Run("dim8-400-traced", func(b *testing.B) {
		benchIterations(b, PC, 50, start8, 400, func(e TraceEvent) { lastTrace = &e })
	})
}

// lastTrace holds the traced benchmark's latest event, so the copy escapes as
// the jobs layer's does.
var lastTrace *TraceEvent

func benchIterations(b *testing.B, alg Algorithm, sigma float64, start [][]float64, iterations int, trace func(TraceEvent)) {
	b.Helper()
	b.ReportAllocs()
	iters := 0
	for i := 0; i < b.N; i++ {
		sp := space(testfunc.Rosenbrock, len(start)-1, sigma, int64(i+1))
		cfg := DefaultConfig(alg)
		cfg.MaxIterations = iterations
		cfg.Tol = 0
		cfg.MaxWalltime = 0
		cfg.Trace = trace
		res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkOptimizeExpensiveWorkers runs full MN optimizations where each
// sampling increment waits on an external simulation (latency-bound
// SampleCost), at increasing sched worker counts. The speedup over the
// workers=1 row is the end-to-end payoff of concurrent batch sampling; the
// results themselves are bitwise identical across rows.
func BenchmarkOptimizeExpensiveWorkers(b *testing.B) {
	start := [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := sim.NewLocalSpace(sim.LocalConfig{
					Dim:        3,
					F:          testfunc.Rosenbrock,
					Sigma0:     sim.ConstSigma(50),
					Seed:       1,
					Parallel:   true,
					Workers:    workers,
					SampleCost: func([]float64, float64) { time.Sleep(50 * time.Microsecond) },
				})
				cfg := DefaultConfig(MN)
				cfg.MaxIterations = 30
				cfg.Tol = 0
				cfg.MaxWalltime = 0
				if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start}); err != nil {
					b.Fatal(err)
				}
				sp.Close()
			}
		})
	}
}

// BenchmarkRestarts measures a run with three restart legs.
func BenchmarkRestarts(b *testing.B) {
	start := [][]float64{{-1.5, 2}, {-1.4, 2.1}, {-1.6, 2.1}}
	for i := 0; i < b.N; i++ {
		sp := space(testfunc.Rosenbrock, 2, 0, int64(i+1))
		cfg := DefaultConfig(DET)
		cfg.MaxIterations = 40
		cfg.Tol = 1e-9
		cfg.MaxWalltime = 0
		if _, err := Run(context.Background(), sp, RunSpec{
			Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start,
			Restarts: 3, RestartScale: []float64{0.3, 0.3},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
