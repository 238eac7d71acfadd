package core

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// oneStep runs exactly one DET iteration on a noiseless function from a
// fixed simplex and returns the result.
func oneStep(t *testing.T, f func([]float64) float64, start [][]float64) *Result {
	t.Helper()
	sp := sim.NewLocalSpace(sim.LocalConfig{Dim: len(start[0]), F: f, Parallel: true})
	cfg := DefaultConfig(DET)
	cfg.MaxIterations = 1
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// f(x) = x1 on simplex {(0,0),(1,0),(0,1)}: max = (1,0); cent = (0,0.5);
// ref = (-1,1) with f=-1 < gmin=0 -> expansion point (-2,1.5) with f=-2 < -1
// -> expansion accepted, contraction level -1.
func TestDeterministicExpansionMove(t *testing.T) {
	res := oneStep(t, func(x []float64) float64 { return x[0] },
		[][]float64{{0, 0}, {1, 0}, {0, 1}})
	if res.Moves.Expansions != 1 {
		t.Fatalf("moves = %+v, want one expansion", res.Moves)
	}
	if res.ContractionLevel != -1 {
		t.Fatalf("level = %d, want -1", res.ContractionLevel)
	}
	found := false
	for _, v := range res.FinalSimplex {
		if v[0] == -2 && v[1] == 1.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expansion point missing from %v", res.FinalSimplex)
	}
}

// Sphere on {(0,0),(2,0),(0,0.1)}: max = (2,0) g=4; cent = (0,0.05);
// ref = (-2, 0.1) g=4.01 >= gmax -> contraction (1, 0.025) g=1.0006 < 4
// -> contraction accepted, level +1.
func TestDeterministicContractionMove(t *testing.T) {
	res := oneStep(t, testfunc.Sphere, [][]float64{{0, 0}, {2, 0}, {0, 0.1}})
	if res.Moves.Contractions != 1 {
		t.Fatalf("moves = %+v, want one contraction", res.Moves)
	}
	if res.ContractionLevel != 1 {
		t.Fatalf("level = %d, want +1", res.ContractionLevel)
	}
}

// f(x) = -x1^2 on {(0,0),(1,0),(-1,0.1)}: values 0, -1, -1; max = (0,0) g=0.
// ref = (0, 0.1) has g=0, not below gmax; contraction (0, 0.025) also g=0,
// not below gmax -> collapse toward the min; level +d = +2.
func TestDeterministicCollapseMove(t *testing.T) {
	res := oneStep(t, func(x []float64) float64 { return -x[0] * x[0] },
		[][]float64{{0, 0}, {1, 0}, {-1, 0.1}})
	if res.Moves.Collapses != 1 {
		t.Fatalf("moves = %+v, want one collapse", res.Moves)
	}
	if res.ContractionLevel != 2 {
		t.Fatalf("level = %d, want +2 (d=2)", res.ContractionLevel)
	}
	// Vertices other than the min moved halfway toward it.
	// min is (1,0) (first of the two tied at -1 by order()).
	wantA := []float64{0.5, 0}  // (0,0) -> midpoint with (1,0)
	wantB := []float64{0, 0.05} // (-1,0.1) -> midpoint with (1,0)
	foundA, foundB := false, false
	for _, v := range res.FinalSimplex {
		if v[0] == wantA[0] && v[1] == wantA[1] {
			foundA = true
		}
		if v[0] == wantB[0] && v[1] == wantB[1] {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("collapse geometry wrong: %v", res.FinalSimplex)
	}
}

// Linear descent on a plane: the simplex must descend monotonically, never
// contract or collapse (downhill always exists), and expand at least once.
func TestPlaneDescendsWithoutContraction(t *testing.T) {
	sp := sim.NewLocalSpace(sim.LocalConfig{
		Dim: 2, F: func(x []float64) float64 { return x[0] + x[1] }, Parallel: true,
	})
	cfg := DefaultConfig(DET)
	cfg.MaxIterations = 8
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	prevBest := 0.0
	cfg.Trace = func(e TraceEvent) {
		if e.Best > prevBest {
			t.Fatalf("iteration %d: best value rose to %v", e.Iter, e.Best)
		}
		prevBest = e.Best
	}
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{0, 0}, {1, 0}, {0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves.Contractions != 0 || res.Moves.Collapses != 0 {
		t.Fatalf("moves = %+v: contraction/collapse on a plane", res.Moves)
	}
	if res.Moves.Expansions == 0 {
		t.Fatalf("moves = %+v: no expansion on a plane", res.Moves)
	}
}

// PC on a noiseless function must replicate DET's trajectory exactly: all
// comparisons resolve immediately (sigma = 0) on the same means.
func TestPCNoiselessMatchesDET(t *testing.T) {
	start := [][]float64{{-1.2, 1}, {-1, 1.2}, {-0.8, 0.8}}
	runAlg := func(alg Algorithm) *Result {
		sp := sim.NewLocalSpace(sim.LocalConfig{Dim: 2, F: testfunc.Rosenbrock, Parallel: true})
		cfg := DefaultConfig(alg)
		cfg.MaxIterations = 100
		cfg.Tol = 1e-12
		cfg.MaxWalltime = 0
		res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	det := runAlg(DET)
	pc := runAlg(PC)
	if det.Iterations != pc.Iterations {
		t.Fatalf("iterations differ: DET %d vs PC %d", det.Iterations, pc.Iterations)
	}
	for i := range det.BestX {
		if det.BestX[i] != pc.BestX[i] {
			t.Fatalf("trajectories diverged: %v vs %v", det.BestX, pc.BestX)
		}
	}
	if pc.ResampleRounds != 0 {
		t.Fatalf("noiseless PC resampled %d times", pc.ResampleRounds)
	}
}
