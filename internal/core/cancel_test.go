package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

func TestOptimizeContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := space(testfunc.Rosenbrock, 3, 10, 1)
	start := [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}
	res, err := Run(ctx, sp, RunSpec{Strategy: "mn", Config: DefaultConfig(MN), Initial: start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" {
		t.Fatalf("Termination = %q, want canceled", res.Termination)
	}
	if res.Iterations != 0 {
		t.Fatalf("Iterations = %d, want 0", res.Iterations)
	}
}

func TestOptimizeContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := space(testfunc.Rosenbrock, 3, 50, 2)
	start := [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}
	cfg := DefaultConfig(PC)
	cfg.Tol = 0 // never converge; only the cancel can stop the run
	cfg.MaxWalltime = 0
	cfg.MaxIterations = 0
	cfg.Trace = func(ev TraceEvent) {
		if ev.Iter == 5 {
			cancel()
		}
	}
	res, err := Run(ctx, sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" {
		t.Fatalf("Termination = %q, want canceled", res.Termination)
	}
	if res.Iterations < 5 {
		t.Fatalf("Iterations = %d, want >= 5", res.Iterations)
	}
	if len(res.BestX) != 3 {
		t.Fatalf("BestX = %v", res.BestX)
	}
}

// TestOptimizerBitwiseIdenticalAcrossWorkers is the end-to-end determinism
// contract: a full PC optimization through the concurrent batch path must
// return a Result bitwise identical to the serial path for the same seed.
func TestOptimizerBitwiseIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		sp := sim.NewLocalSpace(sim.LocalConfig{
			Dim:      3,
			F:        testfunc.Rosenbrock,
			Sigma0:   sim.ConstSigma(25),
			Seed:     5,
			Parallel: true,
			Workers:  workers,
		})
		defer sp.Close()
		cfg := DefaultConfig(PC)
		cfg.MaxIterations = 60
		cfg.Tol = 0
		cfg.MaxWalltime = 0
		res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if conc := run(workers); !reflect.DeepEqual(serial, conc) {
			t.Fatalf("Result differs between workers=1 and workers=%d:\nserial: %+v\nconc:   %+v", workers, serial, conc)
		}
	}
}

// failingSpace wraps a LocalSpace, failing every batch after a threshold and
// counting live (unclosed) points — the shape of an MW deployment with a
// dead worker, whose bounded rank pool deadlocks if vertices leak.
type failingSpace struct {
	*sim.LocalSpace
	batches int
	live    int
}

type trackedPoint struct {
	sim.Point
	sp *failingSpace
}

func (s *failingSpace) NewPoint(x []float64) sim.Point {
	s.live++
	return &trackedPoint{Point: s.LocalSpace.NewPoint(x), sp: s}
}

func (p *trackedPoint) Close() {
	p.sp.live--
	p.Point.Close()
}

func (s *failingSpace) SampleBatch(ctx context.Context, points []sim.Point, dt float64) error {
	s.batches++
	if s.batches > 6 {
		return errSimulatedWorker
	}
	inner := make([]sim.Point, len(points))
	for i, p := range points {
		inner[i] = p.(*trackedPoint).Point
	}
	return s.LocalSpace.SampleBatch(ctx, inner, dt)
}

var errSimulatedWorker = errors.New("core test: simulated dead worker")

// TestBackendErrorClosesAllPoints pins the cleanup contract on mid-run
// backend failures: Run must close every point it created (on an MW
// space each Close releases a vertex worker rank; leaking them deadlocks the
// next run on the space).
func TestBackendErrorClosesAllPoints(t *testing.T) {
	fs := &failingSpace{LocalSpace: space(testfunc.Rosenbrock, 3, 10, 1)}
	cfg := DefaultConfig(DET)
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	_, err := Run(context.Background(), fs, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}})
	if err == nil {
		t.Fatal("Run succeeded despite failing backend")
	}
	if fs.live != 0 {
		t.Fatalf("%d points left unclosed after backend error", fs.live)
	}
}
