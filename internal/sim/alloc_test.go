package sim

import (
	"context"
	"testing"

	"repro/internal/sched"
)

// TestSampleBatchAllocBudget is the allocation budget on the in-process
// batch sampling path: one batch of any width must cost O(1) allocations —
// the scheduler's batch header plus the dispatch closure — never O(points).
// Costed serial spaces (Workers: 1) pay exactly the one closure, cost-free
// spaces nothing at all.
func TestSampleBatchAllocBudget(t *testing.T) {
	ctx := context.Background()
	points := func(s *LocalSpace, n int) []Point {
		ps := make([]Point, n)
		for i := range ps {
			ps[i] = s.NewPoint([]float64{0.5, -0.25})
		}
		return ps
	}

	t.Run("in-caller", func(t *testing.T) {
		pool := sched.New(sched.Config{Workers: 4})
		defer pool.Close()
		s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Pool: pool})
		ps := points(s, 16)
		rank := func(i int) int { return -i }
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.SampleBatch(ctx, ps, 0.01); err != nil {
				t.Fatal(err)
			}
			if err := s.SampleBatchRanked(ctx, ps, 0.01, rank); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("in-caller SampleBatch+SampleBatchRanked(16): %.1f allocs per call, want 0", allocs)
		}
	})

	t.Run("serial", func(t *testing.T) {
		s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 1, SampleCost: noCost})
		defer s.Close()
		ps := points(s, 16)
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.SampleBatch(ctx, ps, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		// The single allocation is the indexed dispatch closure handed to
		// the pool; it is batch-scoped, so the per-point cost is zero.
		if allocs > 1 {
			t.Errorf("serial SampleBatch(16): %.1f allocs per call, want <= 1", allocs)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const budget = 10
		s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 4})
		defer s.Close()
		ps := points(s, 64)
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.SampleBatch(ctx, ps, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("concurrent SampleBatch(64): %.1f allocs per call, budget %d", allocs, budget)
		}
		t.Logf("concurrent SampleBatch(64): %.1f allocs per call (budget %d)", allocs, budget)
	})
}

// TestNewPointAllocBudget caps what creating a point costs the allocator:
// the coordinate copy, the point, its stream and its accumulator. With the
// stdlib generator there were two more (the 4.9 KB state vector and the
// rand.Rand over it); now the generator's front end arrives with the first
// local draw, and the state vector only if the point lives to draw 274.
func TestNewPointAllocBudget(t *testing.T) {
	s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 1})
	defer s.Close()
	x := []float64{0.5, -0.25}
	if allocs := testing.AllocsPerRun(100, func() { s.NewPoint(x) }); allocs > 4 {
		t.Errorf("NewPoint: %.1f allocs per call, want <= 4", allocs)
	}
	// The trial-point shape: create, draw three times, discard.
	lifecycle := testing.AllocsPerRun(100, func() {
		p := s.NewPoint(x)
		for i := 0; i < 3; i++ {
			p.Sample(0.01)
		}
		p.Close()
	})
	if lifecycle > 5 {
		t.Errorf("NewPoint + 3 draws: %.1f allocs, want <= 5", lifecycle)
	}
}
