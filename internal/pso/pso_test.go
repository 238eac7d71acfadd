package pso

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

func space(f func([]float64) float64, dim int, sigma float64, seed int64) *sim.LocalSpace {
	return sim.NewLocalSpace(sim.LocalConfig{
		Dim: dim, F: f, Sigma0: sim.ConstSigma(sigma), Seed: seed, Parallel: true,
	})
}

func bounds(d int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, d)
	h := make([]float64, d)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*config){
		func(c *config) { c.Particles = 1 },
		func(c *config) { c.Iterations = 0 },
		func(c *config) { c.Lo = c.Lo[:1] },
		func(c *config) { c.Hi[0] = c.Lo[0] },
		func(c *config) { c.SampleDt = 0 },
		func(c *config) { c.ResampleGrowth = 0.5 },
	}
	for i, mutate := range bad {
		lo, hi := bounds(2, -1, 1)
		cfg := defaultConfig(lo, hi)
		mutate(&cfg)
		if err := cfg.validate(2); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNoiselessSphere(t *testing.T) {
	sp := space(testfunc.Sphere, 3, 0, 1)
	lo, hi := bounds(3, -5, 5)
	cfg := defaultConfig(lo, hi)
	cfg.Seed = 2
	res, err := runSwarm(context.Background(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := testfunc.Sphere(res.BestX); f > 0.1 {
		t.Fatalf("PSO sphere best %v (f=%v)", res.BestX, f)
	}
	if res.Iterations != cfg.Iterations {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

// The headline motivation (section 5.2): on a multimodal surface, a simplex
// from a poor start gets trapped in a local minimum, while PSO finds the
// global basin. Rastrigin's local minima sit on the integer grid with values
// >= 1, so "found the global basin" is f < 1.
func TestPSOEscapesLocalMinimaWhereSimplexTraps(t *testing.T) {
	// Simplex from a corner of the box: converges to a nearby local min.
	spS := space(testfunc.Rastrigin, 2, 0, 3)
	cfg := core.DefaultConfig(core.DET)
	cfg.Tol = 1e-9
	simplexRes, err := core.Run(context.Background(), spS, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{4.2, 4.3}, {4.4, 4.2}, {4.3, 4.5}}})
	if err != nil {
		t.Fatal(err)
	}
	fSimplex := testfunc.Rastrigin(simplexRes.BestX)
	if fSimplex < 1 {
		t.Fatalf("test premise broken: simplex reached the global basin (f=%v)", fSimplex)
	}

	spP := space(testfunc.Rastrigin, 2, 0, 4)
	lo, hi := bounds(2, -5.12, 5.12)
	pcfg := defaultConfig(lo, hi)
	pcfg.Particles = 30
	pcfg.Iterations = 80
	pcfg.Seed = 5
	psoRes, err := runSwarm(context.Background(), spP, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := testfunc.Rastrigin(psoRes.BestX); f >= 1 {
		t.Fatalf("PSO did not reach the global basin: f=%v at %v", f, psoRes.BestX)
	}
}

// Noise-aware best-updates (K=1) must beat the noise-blind swarm (K=0) under
// heavy noise, aggregated over seeds: with plain means, lucky noise draws
// corrupt the personal bests ("the underlying algorithm gets the misleading
// information").
func TestNoiseAwareBeatsNoiseBlind(t *testing.T) {
	var aware, blind float64
	const trials = 8
	for s := int64(0); s < trials; s++ {
		run := func(k float64) float64 {
			sp := space(testfunc.Sphere, 3, 50, 100+s)
			lo, hi := bounds(3, -5, 5)
			cfg := defaultConfig(lo, hi)
			cfg.K = k
			cfg.Seed = 200 + s
			cfg.Iterations = 40
			res, err := runSwarm(context.Background(), sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return testfunc.Sphere(res.BestX)
		}
		aware += math.Log10(run(1) + 1e-9)
		blind += math.Log10(run(0) + 1e-9)
	}
	if aware >= blind {
		t.Fatalf("noise-aware mean log-error %.3f not better than noise-blind %.3f",
			aware/trials, blind/trials)
	}
}

func TestBoundsRespected(t *testing.T) {
	sp := space(testfunc.Rastrigin, 2, 10, 6)
	lo, hi := bounds(2, -2, 2)
	cfg := defaultConfig(lo, hi)
	cfg.Seed = 7
	cfg.Iterations = 30
	res, err := runSwarm(context.Background(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range res.BestX {
		if v < lo[j]-1e-9 || v > hi[j]+1e-9 {
			t.Fatalf("best[%d] = %v outside [%v, %v]", j, v, lo[j], hi[j])
		}
	}
}

func TestWalltimeBudget(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 100, 8)
	lo, hi := bounds(2, -5, 5)
	cfg := defaultConfig(lo, hi)
	cfg.Seed = 9
	cfg.Iterations = 100000
	cfg.MaxWalltime = 500
	res, err := runSwarm(context.Background(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100000 {
		t.Fatal("walltime budget ignored")
	}
}

// Hybrid: a deliberately coarse swarm phase locates the global basin, then
// the stochastic simplex supplies the precision PSO lacks "in refined search
// stages" (section 5.2). The refinement must substantially improve the
// swarm's imprecise best. The plain "pso" run of the same spec on the same
// seed is exactly the hybrid's global phase.
func TestHybridRefinesCoarsePSO(t *testing.T) {
	lcfg := core.DefaultConfig(core.PC)
	lcfg.MaxWalltime = 3e4
	lcfg.Tol = 1e-4
	spec := core.RunSpec{
		Config: lcfg,
		Seed:   11, Lo: -5.12, Hi: 5.12, HasBox: true,
		Particles:    25,
		SwarmIters:   8, // coarse: basin located, floor not reached
		RestartScale: []float64{0.2},
	}
	run := func(strategy string) *core.Result {
		spec.Strategy = strategy
		res, err := core.Run(context.Background(), space(testfunc.Rastrigin, 2, 1, 10), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fGlobal := testfunc.Rastrigin(run("pso").BestX)
	fLocal := testfunc.Rastrigin(run("hybrid").BestX)
	if fGlobal < 0.3 {
		t.Skipf("swarm already converged (f=%v); nothing to assert", fGlobal)
	}
	if fLocal >= fGlobal {
		t.Fatalf("refinement did not improve: %v -> %v", fGlobal, fLocal)
	}
	if fLocal > 1 {
		t.Fatalf("hybrid missed the global basin floor: f=%v (swarm had %v)", fLocal, fGlobal)
	}
}

func TestHybridValidation(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 0, 1)
	_, err := core.Run(context.Background(), sp, core.RunSpec{
		Strategy: "hybrid", Config: core.DefaultConfig(core.DET),
		Lo: -1, Hi: 1, HasBox: true,
		RestartScale: []float64{0.1, 0.1, 0.1}, // wrong length
	})
	if err == nil {
		t.Fatal("wrong local scale length accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		sp := space(testfunc.Sphere, 2, 5, 33)
		lo, hi := bounds(2, -3, 3)
		cfg := defaultConfig(lo, hi)
		cfg.Seed = 44
		cfg.Iterations = 15
		res, err := runSwarm(context.Background(), sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestG
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
