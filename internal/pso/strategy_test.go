package pso

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

func newStratSpace() *sim.LocalSpace {
	return sim.NewLocalSpace(sim.LocalConfig{
		Dim: 2, F: testfunc.Rastrigin, Sigma0: sim.ConstSigma(2), Seed: 7, Parallel: true,
	})
}

func TestStrategiesRegistered(t *testing.T) {
	for _, name := range []string{"pso", "swarm", "hybrid", "pso+nm"} {
		s, err := core.LookupStrategy(name)
		if err != nil {
			t.Fatalf("LookupStrategy(%q): %v", name, err)
		}
		if s.Resumable() {
			t.Errorf("%q reports Resumable, want false", name)
		}
	}
	if _, err := core.ParseAlgorithm("pso"); err == nil {
		t.Error("ParseAlgorithm(pso) succeeded; pso has no Algorithm value")
	}
}

func TestOptimizeContextCancellation(t *testing.T) {
	spec := swarmSpec("pso")
	spec.Lo, spec.Hi = -5, 5
	spec.Particles, spec.SwarmIters = 20, 1000
	updates := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec.Config.Trace = func(core.TraceEvent) {
		updates++
		if updates == 3 {
			cancel() // stop the swarm after the third update
		}
	}
	res, err := core.Run(ctx, newStratSpace(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" {
		t.Fatalf("Termination = %q, want canceled", res.Termination)
	}
	if res.Iterations >= 1000 || res.BestX == nil {
		t.Fatalf("canceled run looks wrong: %+v", res)
	}
}

func TestTraceAndTermination(t *testing.T) {
	spec := swarmSpec("pso")
	spec.Lo, spec.Hi = -5, 5
	spec.Particles, spec.SwarmIters = 6, 9
	var events []core.TraceEvent
	spec.Config.Trace = func(e core.TraceEvent) { events = append(events, e) }
	res, err := core.Run(context.Background(), newStratSpace(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "iterations" {
		t.Fatalf("Termination = %q, want iterations", res.Termination)
	}
	if len(events) != 9 {
		t.Fatalf("got %d trace events, want 9", len(events))
	}
	for i, e := range events {
		if e.Iter != i+1 || len(e.BestX) != 2 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
}

// TestHybridCancelDuringSwarm: a context canceled in the global phase skips
// the local leg; the result is the partial swarm's, with its best point and
// no simplex iterations or moves.
func TestHybridCancelDuringSwarm(t *testing.T) {
	spec := swarmSpec("hybrid")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	updates := 0
	spec.Config.Trace = func(core.TraceEvent) {
		updates++
		if updates == 3 {
			cancel()
		}
	}
	res, err := core.Run(ctx, newStratSpace(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" || len(res.BestX) != 2 {
		t.Fatalf("Termination = %q, BestX = %v; want canceled with a best point", res.Termination, res.BestX)
	}
	if res.Iterations != 3 || res.Moves != (core.MoveStats{}) || res.FinalSimplex != nil {
		t.Fatalf("iterations=%d moves=%+v simplex=%v: want the swarm's 3 updates and no simplex work",
			res.Iterations, res.Moves, res.FinalSimplex)
	}
	if updates != 3 {
		t.Fatalf("%d trace events after the cancel at the third; the local leg ran", updates)
	}
}

// TestHybridCancelDuringLocalLeg: a context canceled in the local leg ends
// the run as canceled, and the result still counts the swarm's iterations,
// walltime and resample rounds on top of the leg's.
func TestHybridCancelDuringLocalLeg(t *testing.T) {
	swarm, err := core.Run(context.Background(), newStratSpace(), swarmSpec("pso"))
	if err != nil {
		t.Fatal(err)
	}
	spec := swarmSpec("hybrid")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	spec.Config.Trace = func(core.TraceEvent) {
		events++
		if events == spec.SwarmIters+2 {
			cancel() // the second simplex iteration of the local leg
		}
	}
	res, err := core.Run(ctx, newStratSpace(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" {
		t.Fatalf("Termination = %q, want canceled", res.Termination)
	}
	if res.Iterations != swarm.Iterations+2 {
		t.Fatalf("Iterations = %d, want the swarm's %d plus the leg's 2", res.Iterations, swarm.Iterations)
	}
	if res.Walltime <= swarm.Walltime || res.ResampleRounds < swarm.ResampleRounds {
		t.Fatalf("walltime %v, resample rounds %d: want more than the swarm's %v and at least its %d",
			res.Walltime, res.ResampleRounds, swarm.Walltime, swarm.ResampleRounds)
	}
}

// swarmSpec is a small registry-driven swarm run on a noisy objective.
func swarmSpec(strategy string) core.RunSpec {
	cfg := core.DefaultConfig(core.PC)
	cfg.MaxIterations = 40
	return core.RunSpec{
		Strategy:   strategy,
		Config:     cfg,
		Seed:       7,
		Lo:         -3,
		Hi:         3,
		HasBox:     true,
		Particles:  6,
		SwarmIters: 8,
	}
}

// TestStrategiesBitwiseAcrossWorkers runs "pso" and "hybrid" the way every
// caller above this package does, by registry name through core.Run, and
// requires the whole Result to be identical at pool widths 1 and 4.
func TestStrategiesBitwiseAcrossWorkers(t *testing.T) {
	for _, strategy := range []string{"pso", "hybrid"} {
		var results []*core.Result
		for _, workers := range []int{1, 4} {
			sp := sim.NewLocalSpace(sim.LocalConfig{
				Dim:      2,
				F:        testfunc.Rastrigin,
				Sigma0:   sim.ConstSigma(2),
				Seed:     11,
				Parallel: true,
				Workers:  workers,
			})
			res, err := core.Run(context.Background(), sp, swarmSpec(strategy))
			sp.Close()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strategy, workers, err)
			}
			results = append(results, res)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: results differ across worker counts\n w1: %+v\n w4: %+v",
				strategy, results[0], results[1])
		}
		res := results[0]
		if res.Evaluations == 0 || res.Iterations < 8 || len(res.BestX) != 2 {
			t.Errorf("%s: implausible result %+v", strategy, res)
		}
		// The hybrid's local leg adds simplex iterations on top of the
		// swarm's eight and ends on a simplex termination.
		if strategy == "pso" && (res.Iterations != 8 || res.Termination != "iterations") {
			t.Errorf("pso: iterations=%d termination=%q, want 8 swarm updates", res.Iterations, res.Termination)
		}
		if strategy == "hybrid" && res.Iterations <= 8 {
			t.Errorf("hybrid: iterations=%d, want the swarm's 8 plus a local leg", res.Iterations)
		}
	}
}

// TestStrategyValidation: specs the swarm cannot honour are rejected by
// Validate, before any sampling.
func TestStrategyValidation(t *testing.T) {
	cases := []struct {
		name     string
		strategy string
		mutate   func(*core.RunSpec)
		wantErr  string
	}{
		{"one particle", "pso", func(s *core.RunSpec) { s.Particles = 1 }, "at least 2 particles"},
		{"one particle hybrid", "hybrid", func(s *core.RunSpec) { s.Particles = 1 }, "at least 2 particles"},
		{"explicit simplex", "pso", func(s *core.RunSpec) { s.Initial = [][]float64{{0, 0}, {1, 0}, {0, 1}} }, "draws its own swarm"},
		{"no box", "pso", func(s *core.RunSpec) { s.HasBox = false }, "needs a search box"},
		{"empty box", "pso", func(s *core.RunSpec) { s.Lo, s.Hi = 1, 1 }, "empty"},
		{"restarts", "hybrid", func(s *core.RunSpec) { s.Restarts = 2 }, "does not take restarts"},
		{"bad sampling schedule", "pso", func(s *core.RunSpec) { s.Config.ResampleGrowth = 0.5 }, "invalid sampling"},
		{"bad local leg", "hybrid", func(s *core.RunSpec) { s.Config.Tol = -1 }, "Config.Tol"},
		{"bad local scale", "hybrid", func(s *core.RunSpec) { s.RestartScale = []float64{1, 1, 1} }, "restart scale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := space(testfunc.Sphere, 2, 1, 1)
			spec := swarmSpec(c.strategy)
			c.mutate(&spec)
			_, err := core.Run(context.Background(), sp, spec)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want it to contain %q", err, c.wantErr)
			}
			if n := sp.Evaluations(); n != 0 {
				t.Fatalf("rejected spec sampled %d times first", n)
			}
		})
	}
}

// TestSwarmItersDefault: a zero SwarmIters or Particles means the package
// default, not a rejection.
func TestSwarmItersDefault(t *testing.T) {
	spec := swarmSpec("pso")
	spec.Particles, spec.SwarmIters = 0, 0
	cfg := swarmConfig(2, &spec)
	def := defaultConfig(nil, nil)
	if cfg.Particles != def.Particles || cfg.Iterations != def.Iterations {
		t.Fatalf("swarm = %d particles x %d iterations, want the defaults %d x %d",
			cfg.Particles, cfg.Iterations, def.Particles, def.Iterations)
	}
}
