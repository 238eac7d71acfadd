package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/testfunc"
)

// TestRestartValidation: restart parameters the leg driver cannot honour
// are rejected before any sampling.
func TestRestartValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"negative restarts", func(s *RunSpec) { s.Restarts = -1 }},
		{"wrong scale length", func(s *RunSpec) { s.RestartScale = []float64{0.1, 0.1, 0.1} }},
		{"negative scale", func(s *RunSpec) { s.RestartScale = []float64{0.1, -1} }},
		{"decay > 1", func(s *RunSpec) { s.ScaleDecay = 2 }},
	}
	for _, c := range cases {
		sp := space(testfunc.Sphere, 2, 0, 1)
		spec := RunSpec{
			Strategy: "det", Config: DefaultConfig(DET),
			Initial:  [][]float64{{1, 1}, {2, 1}, {1, 2}},
			Restarts: 1, RestartScale: []float64{0.1, 0.1},
		}
		c.mutate(&spec)
		if _, err := Run(context.Background(), sp, spec); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if n := sp.Evaluations(); n != 0 {
			t.Errorf("%s: rejected spec sampled %d times first", c.name, n)
		}
	}
}

// On the Rosenbrock banana a budget-starved simplex stalls in the valley;
// restarts must recover and get strictly closer to the minimum.
func TestRestartsImproveStalledRosenbrock(t *testing.T) {
	start := [][]float64{{-1.5, 2}, {-1.4, 2.1}, {-1.6, 2.1}}
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-9
	cfg.MaxIterations = 60 // starve the first leg
	cfg.MaxWalltime = 0

	spPlain := space(testfunc.Rosenbrock, 2, 0, 1)
	plain, err := Run(context.Background(), spPlain, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}

	spRe := space(testfunc.Rosenbrock, 2, 0, 1)
	restarted, err := Run(context.Background(), spRe, RunSpec{
		Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start,
		Restarts: 4, RestartScale: []float64{0.3, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	fPlain := testfunc.Rosenbrock(plain.BestX)
	fRe := testfunc.Rosenbrock(restarted.BestX)
	if fRe >= fPlain {
		t.Fatalf("restarts did not improve: %v vs %v", fRe, fPlain)
	}
	if restarted.Iterations <= plain.Iterations {
		t.Fatal("restart legs not accumulated in Iterations")
	}
}

func TestRestartsWorkUnderNoise(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 3, 10, 5)
	cfg := DefaultConfig(PC)
	cfg.MaxWalltime = 1e4
	cfg.Tol = 0.01
	res, err := Run(context.Background(), sp, RunSpec{
		Strategy: cfg.Algorithm.String(), Config: cfg,
		Initial:  [][]float64{{-2, 1, 0}, {-1, 2, 1}, {0, 0, -1}, {1, -1, 2}},
		Restarts: 2, RestartScale: []float64{0.5, 0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestX == nil || math.IsNaN(res.BestG) {
		t.Fatal("restart result incomplete")
	}
}

func TestSimplexAroundGeometry(t *testing.T) {
	s := simplexAround([]float64{1, 2, 3}, []float64{0.1, 0.2, 0.3})
	if len(s) != 4 {
		t.Fatalf("vertices = %d", len(s))
	}
	if s[0][0] != 1 || s[0][1] != 2 || s[0][2] != 3 {
		t.Fatalf("anchor = %v", s[0])
	}
	if s[1][0] != 1.1 || s[2][1] != 2.2 || s[3][2] != 3.3 {
		t.Fatalf("offsets wrong: %v", s)
	}
	// Mutating the anchor input must not alias the simplex.
	x := []float64{5, 5}
	s2 := simplexAround(x, []float64{1, 1})
	x[0] = 99
	if s2[0][0] != 5 {
		t.Fatal("simplexAround aliased its input")
	}
}

// A restart around the best point of a converged sphere run must terminate
// immediately near the optimum rather than wandering off.
func TestRestartStaysAtOptimum(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 0, 3)
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-12
	res, err := Run(context.Background(), sp, RunSpec{
		Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{2, 2}, {3, 2}, {2, 3}},
		Restarts: 3, RestartScale: []float64{0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := testfunc.Sphere(res.BestX); f > 1e-6 {
		t.Fatalf("f(best) = %v after restarts", f)
	}
}
