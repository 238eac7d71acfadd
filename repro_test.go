package repro

import (
	"context"
	"testing"

	"repro/internal/mw"
	"repro/internal/noise"
	"repro/internal/testfunc"
)

// The facade must be sufficient to run a complete optimization without
// touching internal packages directly (beyond test functions).
func TestFacadeLocalOptimization(t *testing.T) {
	space := NewLocalSpace(LocalConfig{
		Dim:      2,
		F:        testfunc.Sphere,
		Sigma0:   ConstSigma(0),
		Parallel: true,
	})
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-10
	res, err := Run(context.Background(), space,
		WithConfig(cfg), WithInitialSimplex([][]float64{{3, 3}, {4, 3}, {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "tolerance" {
		t.Fatalf("termination = %q", res.Termination)
	}
	if d := testfunc.Dist(res.BestX, []float64{0, 0}); d > 1e-3 {
		t.Fatalf("best %v too far from origin", res.BestX)
	}
}

func TestFacadeMWOptimization(t *testing.T) {
	space, err := NewMWSpace(MWSpaceConfig{
		Dim: 2,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &mw.FuncSystem{F: testfunc.Sphere, Rng: noise.NewSource(int64(rank))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer space.Shutdown()
	cfg := DefaultConfig(PC)
	cfg.Tol = 1e-8
	cfg.MaxIterations = 300
	res, err := Run(context.Background(), space,
		WithConfig(cfg), WithInitialSimplex([][]float64{{3, 3}, {4, 3}, {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if d := testfunc.Dist(res.BestX, []float64{0, 0}); d > 1e-2 {
		t.Fatalf("best %v too far from origin", res.BestX)
	}
}

func TestFacadeParseAndMasks(t *testing.T) {
	alg, err := ParseAlgorithm("pc+mn")
	if err != nil || alg != PCMN {
		t.Fatalf("ParseAlgorithm = %v, %v", alg, err)
	}
	if m := Conditions(1, 3, 6); !m.Has(3) || m.Has(2) {
		t.Fatal("Conditions mask wrong")
	}
	if !AllConditions.Has(7) {
		t.Fatal("AllConditions missing c7")
	}
}
