package pso

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/testfunc"
)

func BenchmarkSwarmIteration(b *testing.B) {
	sp := space(testfunc.Rastrigin, 3, 5, 1)
	lo, hi := bounds(3, -5.12, 5.12)
	cfg := defaultConfig(lo, hi)
	cfg.Iterations = 1
	cfg.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runSwarm(context.Background(), sp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybrid(b *testing.B) {
	lcfg := core.DefaultConfig(core.PC)
	lcfg.MaxWalltime = 5e3
	lcfg.Tol = 1e-4
	for i := 0; i < b.N; i++ {
		sp := space(testfunc.Rastrigin, 2, 1, int64(i+1))
		if _, err := core.Run(context.Background(), sp, core.RunSpec{
			Strategy: "hybrid", Config: lcfg,
			Seed: int64(i + 1), Lo: -5.12, Hi: 5.12, HasBox: true,
			SwarmIters: 10, RestartScale: []float64{0.2},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
