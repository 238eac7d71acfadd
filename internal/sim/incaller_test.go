package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// noCost is a SampleCost that costs nothing: it only moves a space from the
// in-caller path onto the pool.
func noCost([]float64, float64) {}

// entryPoints drives one batch through each of the two sampling entry
// points and returns every point's final estimate.
func entryPoints(s *LocalSpace) ([]Estimate, error) {
	ctx := context.Background()
	pts := make([]Point, 5)
	for i := range pts {
		pts[i] = s.NewPoint([]float64{float64(i), 1 - float64(i)})
	}
	err := s.SampleBatch(ctx, pts, 0.5)
	if err == nil {
		_, err = SampleAdaptive(ctx, s, pts, 1, AdaptivePlan{HalfWidth: 0.5, Z: 2, Grow: 2, MaxRounds: 30})
	}
	out := make([]Estimate, len(pts))
	for i, p := range pts {
		out[i] = p.Estimate()
	}
	return out, err
}

func sameBits(a, b Estimate) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma) &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time)
}

// TestCostFreeSpaceStaysOffThePool: where an increment runs is a function of
// its grain alone. A space with no SampleCost queues nothing on a Pool it
// was offered, through any entry point, and ends with the very bits the same
// seed produces when a (free) SampleCost sends every draw through a pool.
func TestCostFreeSpaceStaysOffThePool(t *testing.T) {
	cfg := LocalConfig{
		Dim:      2,
		F:        func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Sigma0:   ConstSigma(2),
		Seed:     5,
		Mode:     SigmaEstimated,
		Parallel: true,
	}
	ctx := context.Background()
	pool := sched.New(sched.Config{Workers: 4})
	defer pool.Close()
	tasks := obs.Default().Counter("sched_tasks_total")

	free := cfg
	free.Pool = pool
	before := tasks.Value()
	s := NewLocalSpace(free)
	got, err := entryPoints(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.Dispatched(); n != 0 {
		t.Errorf("cost-free space dispatched %d tasks on the offered pool", n)
	}
	if n := tasks.Value() - before; n != 0 {
		t.Errorf("cost-free space moved sched_tasks_total by %d", n)
	}
	if s.Evaluations() == 0 {
		t.Fatal("nothing was sampled")
	}

	for _, workers := range []int{1, 4} {
		costed := cfg
		costed.SampleCost = noCost
		costed.Workers = workers
		before := tasks.Value()
		ref := NewLocalSpace(costed)
		want, err := entryPoints(ref)
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tasks.Value() == before {
			t.Fatalf("workers=%d: the costed reference never reached sched", workers)
		}
		if ref.Evaluations() != s.Evaluations() || ref.Clock().Now() != s.Clock().Now() {
			t.Errorf("workers=%d: %d evaluations at t=%v through the pool, %d at t=%v in the caller",
				workers, ref.Evaluations(), ref.Clock().Now(), s.Evaluations(), s.Clock().Now())
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Errorf("workers=%d point %d: in-caller %+v, through the pool %+v", workers, i, got[i], want[i])
			}
		}
	}

	// A fleet-backed space is not cost-free, whatever its config lacks: every
	// increment is a fleet request and none is drawn locally.
	fleet := &replayFleet{}
	remoteCfg := fleetTestConfig
	remoteCfg.Pool = pool
	remote := NewLocalSpace(remoteCfg)
	if err := remote.UseFleet(fleet, "rosenbrock"); err != nil {
		t.Fatal(err)
	}
	pts := []Point{remote.NewPoint([]float64{1, 2, 3}), remote.NewPoint([]float64{3, 2, 1})}
	if err := remote.SampleBatch(ctx, pts, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SampleAdaptive(ctx, remote, pts, 1, AdaptivePlan{HalfWidth: 1e-9, Grow: 2, MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(len(fleet.reqs)), remote.Evaluations(); got != want || want != 8 {
		t.Errorf("fleet saw %d requests for %d evaluations, want 8 of each", got, want)
	}
	if n := pool.Dispatched(); n != 0 {
		t.Errorf("fleet-backed space dispatched %d tasks on the offered pool", n)
	}
}

// TestInCallerPreCanceled: the in-caller path checks its context once, on
// entry, so a batch under a dead context draws nothing and moves no clock.
func TestInCallerPreCanceled(t *testing.T) {
	s := adaptiveTestSpace(0)
	pts := []Point{s.NewPoint([]float64{1, 0}), s.NewPoint([]float64{0, 1})}
	s.SampleAll(pts, 1)
	evals, now := s.Evaluations(), s.Clock().Now()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.SampleBatch(ctx, pts, 1); err != context.Canceled {
		t.Errorf("SampleBatch: err = %v, want context.Canceled", err)
	}
	if _, err := SampleAdaptive(ctx, s, pts, 1, AdaptivePlan{HalfWidth: 1e-9, MaxRounds: 3}); err != context.Canceled {
		t.Errorf("SampleAdaptive: err = %v, want context.Canceled", err)
	}
	if s.Evaluations() != evals || s.Clock().Now() != now {
		t.Errorf("canceled batches left a trace: %d evaluations at t=%v, were %d at t=%v",
			s.Evaluations(), s.Clock().Now(), evals, now)
	}
}
