package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// The paper's noise model allows sigma0 to vary over parameter space ("some
// models may be noisier than others ... there is no expectation that this
// variance is known ahead of time"). With noise ~7x the local signal, a
// single simplex of any flavour can collapse prematurely and then never
// resolve another comparison (separations shrink faster than 1/sqrt(t)
// precision can follow); the restart strategy recovers. This test pins that
// behaviour: restarted PC solves several seeds that plain PC cannot.
func TestLocationDependentNoiseNeedsRestarts(t *testing.T) {
	const seeds = 6
	run := func(seed int64, restarts int) float64 {
		sp := sim.NewLocalSpace(sim.LocalConfig{
			Dim: 2,
			F:   testfunc.Sphere,
			// Noise grows steeply away from the origin: the starting
			// region is two orders of magnitude noisier than the optimum.
			Sigma0: func(x []float64) float64 {
				return 1 + 10*math.Sqrt(x[0]*x[0]+x[1]*x[1])
			},
			Seed:     seed,
			Parallel: true,
		})
		cfg := DefaultConfig(PC)
		cfg.MaxWalltime = 2e5
		cfg.Tol = 0.05
		res, err := Run(context.Background(), sp, RunSpec{
			Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{8, 8}, {9, 8}, {8, 9}},
			Restarts: restarts, RestartScale: []float64{2, 2}, ScaleDecay: 0.7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return testfunc.Sphere(res.BestX)
	}
	solvedPlain, solvedRestarted := 0, 0
	for seed := int64(3); seed < 3+seeds; seed++ {
		if run(seed, 0) < 20 {
			solvedPlain++
		}
		if run(seed, 4) < 20 {
			solvedRestarted++
		}
	}
	if solvedRestarted < 4 {
		t.Fatalf("restarted PC solved only %d/%d seeds", solvedRestarted, seeds)
	}
	if solvedRestarted <= solvedPlain {
		t.Fatalf("restarts did not help: %d vs %d seeds solved", solvedRestarted, solvedPlain)
	}
}
