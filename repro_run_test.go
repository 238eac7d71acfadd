package repro

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testfunc"
)

// newRunSpace builds the standard space used by the Run tests: a noisy
// 2-D Rosenbrock with a fixed seed, so every run is reproducible.
func newRunSpace() *LocalSpace {
	return NewLocalSpace(LocalConfig{
		Dim:      2,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(10),
		Seed:     9,
		Parallel: true,
	})
}

// plainSpace hides the Snapshotter face of a LocalSpace: only the embedded
// Space interface methods are promoted, so checkpoint/resume must refuse it.
type plainSpace struct{ Space }

// runCfg returns a small deterministic budget for alg.
func runCfg(alg Algorithm) Config {
	cfg := DefaultConfig(alg)
	cfg.MaxWalltime = 400
	cfg.Tol = 0
	return cfg
}

var runInitial = UniformSimplex(2, -4, 4, rand.New(rand.NewSource(9)))

// TestRunOptionValidation is the table of invalid option combinations: every
// one must fail fast with a descriptive error, before any sampling.
func TestRunOptionValidation(t *testing.T) {
	snap := &Snapshot{}
	cases := []struct {
		name    string
		space   Space
		opts    []RunOption
		wantErr string
	}{
		{"nil space", nil, nil, "nil space"},
		{"unknown strategy", newRunSpace(), []RunOption{WithStrategy("warp-drive")}, "unknown strategy"},
		{"initial plus uniform", newRunSpace(), []RunOption{
			WithInitialSimplex(runInitial), WithUniformSimplex(1, -4, 4)}, "mutually exclusive"},
		{"resume plus initial", newRunSpace(), []RunOption{
			WithResume(snap), WithInitialSimplex(runInitial)}, "mutually exclusive"},
		{"no starting simplex", newRunSpace(), []RunOption{WithAlgorithm(PC)}, "starting simplex"},
		{"empty draw box", newRunSpace(), []RunOption{WithUniformSimplex(1, 5, 5)}, "empty"},
		{"nil option", newRunSpace(), []RunOption{nil}, "nil RunOption"},
		{"negative restarts", newRunSpace(), []RunOption{
			WithUniformSimplex(1, -4, 4), WithRestarts(-1)}, ">= 0"},
		{"restart scale shape", newRunSpace(), []RunOption{
			WithUniformSimplex(1, -4, 4), WithRestarts(1, 1, 2, 3)}, "restart scale"},
		{"negative swarm", newRunSpace(), []RunOption{
			WithStrategy("pso"), WithUniformSimplex(1, -4, 4), WithSwarm(-1, 10)}, ">= 0"},
		{"wrong vertex count", newRunSpace(), []RunOption{
			WithInitialSimplex([][]float64{{0, 0}, {1, 0}})}, "vertices"},
		{"wrong vertex dimension", newRunSpace(), []RunOption{
			WithInitialSimplex([][]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}})}, "dimension"},
		{"nil initial simplex", newRunSpace(), []RunOption{
			WithInitialSimplex(nil)}, "vertices"},
		{"pso with initial simplex", newRunSpace(), []RunOption{
			WithStrategy("pso"), WithInitialSimplex(runInitial)}, "initial simplex is not supported"},
		{"pso without box", newRunSpace(), []RunOption{WithStrategy("pso")}, "search box"},
		{"pso with restarts", newRunSpace(), []RunOption{
			WithStrategy("pso"), WithUniformSimplex(1, -4, 4), WithRestarts(1)}, "restarts"},
		{"pso with checkpoint", newRunSpace(), []RunOption{
			WithStrategy("pso"), WithUniformSimplex(1, -4, 4),
			WithCheckpoint(func(*Snapshot) {}, 5)}, "does not support checkpointing"},
		{"pso with resume", newRunSpace(), []RunOption{
			WithStrategy("pso"), WithResume(snap)}, "does not support resume"},
		{"hybrid tiny swarm", newRunSpace(), []RunOption{
			WithStrategy("hybrid"), WithUniformSimplex(1, -4, 4), WithSwarm(1, 5)}, "particles"},
		{"checkpoint without snapshotter", plainSpace{newRunSpace()}, []RunOption{
			WithInitialSimplex(runInitial),
			WithCheckpoint(func(*Snapshot) {}, 5)}, "Snapshotter"},
		{"resume without snapshotter", plainSpace{newRunSpace()}, []RunOption{
			WithResume(snap)}, "Snapshotter"},
		{"resume nil snapshot", newRunSpace(), []RunOption{
			WithResume(nil)}, "nil snapshot"},
		{"invalid config", newRunSpace(), []RunOption{
			WithInitialSimplex(runInitial), WithConfidence(-1)}, "K must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(context.Background(), c.space, c.opts...)
			if err == nil {
				t.Fatalf("Run succeeded (%+v), want error containing %q", res, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, c.wantErr)
			}
		})
	}
}

// TestRunStrategyDeterminismAcrossWorkers: a run configured purely by
// strategy name + options is bitwise-identical whether the space samples
// serially or on a 4-worker pool (run under -race in CI).
func TestRunStrategyDeterminismAcrossWorkers(t *testing.T) {
	newSpace := func(workers int) *LocalSpace {
		return NewLocalSpace(LocalConfig{
			Dim:      2,
			F:        testfunc.Rastrigin,
			Sigma0:   ConstSigma(2),
			Seed:     13,
			Parallel: true,
			Workers:  workers,
		})
	}
	for _, strategy := range []string{"pc", "pc+mn", "pso", "hybrid"} {
		opts := []RunOption{
			WithStrategy(strategy),
			WithUniformSimplex(13, -5, 5),
			WithBudget(800),
			WithTolerance(0),
			WithSwarm(8, 10),
		}
		var results []*Result
		for _, workers := range []int{1, 4} {
			space := newSpace(workers)
			res, err := Run(context.Background(), space, opts...)
			space.Close()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strategy, workers, err)
			}
			results = append(results, res)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: results differ across worker counts\n w1: %+v\n w4: %+v",
				strategy, results[0], results[1])
		}
	}
}

// TestRunCheckpointResumeReproduces: a Run interrupted at any snapshot and
// resumed with WithResume reproduces the uninterrupted run bitwise.
func TestRunCheckpointResumeReproduces(t *testing.T) {
	cfg := runCfg(PC)
	cfg.MaxWalltime = 3000
	// A per-decision cap keeps the simplex stepping at a steady rate, so the
	// budget buys a healthy snapshot series instead of a few ultra-confident
	// decisions.
	cfg.DecisionBudget = 20
	var snaps [][]byte
	full, err := Run(context.Background(), newRunSpace(),
		WithConfig(cfg),
		WithUniformSimplex(9, -4, 4),
		WithCheckpoint(func(s *Snapshot) {
			b, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, b)
		}, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	for _, idx := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		var snap Snapshot
		if err := snap.UnmarshalBinary(snaps[idx]); err != nil {
			t.Fatal(err)
		}
		resumed, err := Run(context.Background(), newRunSpace(),
			WithConfig(cfg), WithResume(&snap))
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", idx, err)
		}
		if !reflect.DeepEqual(full, resumed) {
			t.Errorf("resume from snapshot %d (iteration %d) diverged\n full:    %+v\n resumed: %+v",
				idx, snap.Iterations, full, resumed)
		}
	}
}

// TestRunnerReuse: one validated Runner executes identically on identically
// built spaces.
func TestRunnerReuse(t *testing.T) {
	r, err := NewRunner(
		WithAlgorithm(PC),
		WithUniformSimplex(9, -4, 4),
		WithBudget(300),
		WithTolerance(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if name, err := r.Strategy(); err != nil || name != "pc" {
		t.Fatalf("Runner.Strategy() = %q, %v", name, err)
	}
	a, err := r.Run(context.Background(), newRunSpace())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), newRunSpace())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Runner reuse diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestRunPSOAndHybridBasics: the new strategies run through the facade and
// find the Rastrigin global basin a cornered simplex cannot.
func TestRunPSOAndHybridBasics(t *testing.T) {
	for _, strategy := range []string{"pso", "hybrid"} {
		space := NewLocalSpace(LocalConfig{
			Dim: 2, F: testfunc.Rastrigin, Sigma0: ConstSigma(2), Seed: 7, Parallel: true,
		})
		res, err := Run(context.Background(), space,
			WithStrategy(strategy),
			WithUniformSimplex(7, -5.12, 5.12),
			WithSwarm(30, 40),
			WithRestarts(0, 0.2),
			WithBudget(4e4),
			WithTolerance(1e-5),
		)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Iterations == 0 || len(res.BestX) != 2 {
			t.Fatalf("%s: degenerate result %+v", strategy, res)
		}
		if f := testfunc.Rastrigin(res.BestX); f > 3 {
			t.Errorf("%s: f(best) = %v at %v, want near a deep basin", strategy, f, res.BestX)
		}
	}
}
