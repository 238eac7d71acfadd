package mw

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// On a noiseless objective the optimizer's decisions are deterministic, so
// the full parallel MW deployment must reproduce the sequential LocalSpace
// trajectory bit-for-bit: same iteration count, same best vertex.
func TestOptimizerOverMWMatchesLocalNoiseless(t *testing.T) {
	start := [][]float64{{-1.2, 1}, {-1, 1.2}, {-0.8, 0.8}}
	cfg := core.DefaultConfig(core.DET)
	cfg.Tol = 1e-9
	cfg.MaxIterations = 500

	local := sim.NewLocalSpace(sim.LocalConfig{
		Dim: 2, F: testfunc.Rosenbrock, Parallel: true,
	})
	resLocal, err := core.Run(context.Background(), local, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}

	mwSpace, err := NewSpace(SpaceConfig{
		Dim: 2,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{F: testfunc.Rosenbrock, Rng: rand.New(rand.NewSource(int64(rank)))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mwSpace.Shutdown()
	resMW, err := core.Run(context.Background(), mwSpace, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}

	if resMW.Iterations != resLocal.Iterations {
		t.Fatalf("iterations: MW %d vs local %d", resMW.Iterations, resLocal.Iterations)
	}
	for i := range resLocal.BestX {
		if resMW.BestX[i] != resLocal.BestX[i] {
			t.Fatalf("BestX differs: MW %v vs local %v", resMW.BestX, resLocal.BestX)
		}
	}
	if resMW.BestG != resLocal.BestG {
		t.Fatalf("BestG differs: MW %v vs local %v", resMW.BestG, resLocal.BestG)
	}
}

// The PC algorithm must run end-to-end over MW with noise, using all d+3
// workers without deadlock, and make progress on Rosenbrock.
func TestPCOverMWWithNoise(t *testing.T) {
	mwSpace, err := NewSpace(SpaceConfig{
		Dim: 3,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{
				F:      testfunc.Rosenbrock,
				Sigma0: func([]float64) float64 { return 10 },
				Rng:    rand.New(rand.NewSource(int64(1000 + rank))),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mwSpace.Shutdown()

	if got, want := mwSpace.Processes().Total(), ExpectedProcesses(3, 1); got != want {
		t.Fatalf("deployment size %d, want %d", got, want)
	}

	rng := rand.New(rand.NewSource(5))
	start := make([][]float64, 4)
	for i := range start {
		start[i] = []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
	}
	startBest := math.Inf(1)
	for _, x := range start {
		if f := testfunc.Rosenbrock(x); f < startBest {
			startBest = f
		}
	}

	cfg := core.DefaultConfig(core.PC)
	cfg.MaxWalltime = 5e3
	cfg.Tol = 1e-4
	res, err := core.Run(context.Background(), mwSpace, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}
	if f := testfunc.Rosenbrock(res.BestX); f >= startBest {
		t.Fatalf("no progress over MW: f(best)=%v, start=%v", f, startBest)
	}
	if res.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
}

// Scale-up smoke test in the spirit of section 3.4: a d=20 deployment (23
// workers, 70 processes) must run DET iterations without deadlock.
func TestMWScaleUpD20(t *testing.T) {
	const d = 20
	mwSpace, err := NewSpace(SpaceConfig{
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
		t.Fatal(err)
	}
	defer mwSpace.Shutdown()
	if got := mwSpace.Processes().Total(); got != 70 {
		t.Fatalf("d=20 deployment size %d, want 70 (Table 3.3)", got)
	}

	rng := rand.New(rand.NewSource(17))
	start := make([][]float64, d+1)
	for i := range start {
		start[i] = make([]float64, d)
		for j := range start[i] {
			start[i][j] = rng.Float64()*6 - 3
		}
	}
	cfg := core.DefaultConfig(core.MN)
	cfg.MaxIterations = 30
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	res, err := core.Run(context.Background(), mwSpace, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Fatalf("iterations = %d, want 30", res.Iterations)
	}
}
