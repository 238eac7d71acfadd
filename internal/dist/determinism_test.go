package dist_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/testfunc"
)

// This file is the fleet's conformance layer: full optimizations executed
// over real TCP worker agents must be bitwise identical to the in-process
// runs of the same seed — at any fleet size, in every driver mode, and with
// an agent killed mid-run. It is the distributed extension of the
// internal/conformance golden-trace contract.

// fingerprint renders the parts of a result that must be bitwise identical.
func fingerprint(res *repro.Result) string {
	return fmt.Sprintf("term=%s iters=%d evals=%d walltime=%x bestG=%x bestX=%x moves=%+v waste=%d adaptive=%d",
		res.Termination, res.Iterations, res.Evaluations, res.Walltime, res.BestG, res.BestX,
		res.Moves, res.SpeculativeWaste, res.AdaptiveRounds)
}

// localConfig is the space every run in this file samples; fleet is nil for
// the in-process reference.
func localConfig(fleet *dist.Coordinator) repro.LocalConfig {
	cfg := repro.LocalConfig{
		Dim:      3,
		F:        testfunc.Rosenbrock,
		Sigma0:   repro.ConstSigma(25),
		Seed:     11,
		Parallel: true,
	}
	if fleet != nil {
		cfg.Fleet, cfg.FleetObjective = fleet, "rosenbrock"
	}
	return cfg
}

// runInProcess is the reference execution: plain LocalSpace, shared pool.
func runInProcess(t *testing.T, opts ...repro.RunOption) *repro.Result {
	t.Helper()
	return runOverFleet(t, nil, opts...)
}

// runOverFleet executes the same run with sampling farmed to remote agents
// (in process when c is nil).
func runOverFleet(t *testing.T, c *dist.Coordinator, opts ...repro.RunOption) *repro.Result {
	t.Helper()
	res, err := repro.Run(context.Background(), repro.NewLocalSpace(localConfig(c)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// startAgent runs one agent against the coordinator, returning an
// idempotent kill.
func startAgent(t *testing.T, c *dist.Coordinator, name string, capacity int) (kill func()) {
	t.Helper()
	before := c.Workers()
	w := dist.NewWorker(dist.WorkerConfig{Addr: c.Addr().String(), Name: name, Capacity: capacity})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := c.WaitWorkers(wctx, before+1); err != nil {
		t.Fatal(err)
	}
	killed := false
	kill = func() {
		if !killed {
			killed = true
			cancel()
			<-done
		}
	}
	t.Cleanup(kill)
	return kill
}

func newFleet(t *testing.T) *dist.Coordinator {
	t.Helper()
	c := dist.NewCoordinator(dist.Config{})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestFleetRunBitwiseIdentical runs every driver mode in-process and over
// fleets of one, two and four agents: all four fingerprints must agree bit
// for bit.
func TestFleetRunBitwiseIdentical(t *testing.T) {
	modes := []struct {
		name string
		opts []repro.RunOption
	}{
		{"pc", []repro.RunOption{
			repro.WithStrategy("pc"), repro.WithUniformSimplex(11, -4, 4),
			repro.WithMaxIterations(25), repro.WithTolerance(0), repro.WithBudget(0)}},
		{"pc-speculative", []repro.RunOption{
			repro.WithStrategy("pc"), repro.WithUniformSimplex(11, -4, 4),
			repro.WithMaxIterations(25), repro.WithTolerance(0), repro.WithBudget(0),
			repro.WithSpeculation()}},
		{"det-adaptive", []repro.RunOption{
			repro.WithStrategy("det"), repro.WithUniformSimplex(11, -4, 4),
			repro.WithMaxIterations(25), repro.WithTolerance(0), repro.WithBudget(0),
			repro.WithAdaptiveSamples(40)}},
		{"pso", []repro.RunOption{
			repro.WithStrategy("pso"), repro.WithUniformSimplex(11, -4, 4),
			repro.WithSwarm(10, 8)}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			want := fingerprint(runInProcess(t, mode.opts...))
			for _, agents := range []int{1, 2, 4} {
				c := newFleet(t)
				for i := 0; i < agents; i++ {
					startAgent(t, c, fmt.Sprintf("a%d", i), 2)
				}
				got := fingerprint(runOverFleet(t, c, mode.opts...))
				if got != want {
					t.Errorf("%d agents: fleet run diverged\n got %s\nwant %s", agents, got, want)
				}
				c.Close()
			}
		})
	}
}

// TestFleetRunSurvivesWorkerDeathBitwise is the acceptance property: a run
// over two agents during which one is killed mid-run completes and stays
// bitwise identical to the in-process run. The victim's outstanding tasks
// are re-executed by the survivor with the same draws, so the kill can delay
// the run but cannot steer it.
func TestFleetRunSurvivesWorkerDeathBitwise(t *testing.T) {
	opts := []repro.RunOption{
		repro.WithStrategy("pc"), repro.WithUniformSimplex(11, -4, 4),
		repro.WithMaxIterations(40), repro.WithTolerance(0), repro.WithBudget(0),
	}
	want := fingerprint(runInProcess(t, opts...))

	c := newFleet(t)
	kill := startAgent(t, c, "victim", 2)
	startAgent(t, c, "survivor", 2)

	killed := make(chan struct{})
	trace := repro.WithTrace(func(ev repro.TraceEvent) {
		if ev.Iter == 8 {
			kill()
			close(killed)
		}
	})
	got := fingerprint(runOverFleet(t, c, append(opts, trace)...))
	select {
	case <-killed:
	default:
		t.Fatal("the victim agent was never killed; the scenario did not run")
	}
	if got != want {
		t.Errorf("fleet run with mid-run worker death diverged\n got %s\nwant %s", got, want)
	}
	if st := c.Status(); st.DeadWorkers != 1 {
		t.Errorf("DeadWorkers = %d, want 1", st.DeadWorkers)
	}
}

// TestFleetObjectiveMismatchFailsLoudly checks the determinism guard: an
// agent whose named objective computes something else must fail the run
// with a descriptive error, not corrupt it.
func TestFleetObjectiveMismatchFailsLoudly(t *testing.T) {
	c := newFleet(t)
	w := dist.NewWorker(dist.WorkerConfig{
		Addr: c.Addr().String(), Name: "liar", Capacity: 1,
		Objectives: map[string]func([]float64) float64{
			"rosenbrock": testfunc.Sphere, // wrong function under the right name
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	defer func() { cancel(); <-done }()
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := c.WaitWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}

	_, err := repro.Run(context.Background(), repro.NewLocalSpace(localConfig(c)),
		repro.WithStrategy("pc"), repro.WithUniformSimplex(11, -4, 4),
		repro.WithMaxIterations(10))
	if err == nil {
		t.Fatal("divergent worker objective was not detected")
	}
}
