package sim

import (
	"context"
	"runtime"
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
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.SampleBatch(ctx, ps, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("in-caller SampleBatch(16): %.1f allocs per call, want 0", allocs)
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
// one object, stream and generator included, plus its share of a coordinate
// slab. The state vector would come on top only if the point lived to draw
// 274. (Four objects and then a fifth at the first draw before the stream
// moved into the point.)
func TestNewPointAllocBudget(t *testing.T) {
	s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 1})
	defer s.Close()
	x := []float64{0.5, -0.25}
	if allocs := testing.AllocsPerRun(1000, func() { s.NewPoint(x) }); allocs > 1 {
		t.Errorf("NewPoint: %.2f allocs per call, want <= 1", allocs)
	}
	// The trial-point shape: create, draw three times, discard.
	ctx := context.Background()
	batch := make([]Point, 1)
	lifecycle := testing.AllocsPerRun(1000, func() {
		batch[0] = s.NewPoint(x)
		for i := 0; i < 3; i++ {
			if err := s.SampleBatch(ctx, batch, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		batch[0].Close()
	})
	if lifecycle > 1 {
		t.Errorf("NewPoint + 3 draws: %.2f allocs, want <= 1", lifecycle)
	}
}

// TestPointRecycleAllocBudget caps the bytes the trial-point shape costs
// once a space is warm: a closed point's body serves the next point, so a
// create, three draws and a discard allocate the new point's 16-byte handle
// and nothing else.
func TestPointRecycleAllocBudget(t *testing.T) {
	const cycles, budget = 1000, 16
	s := NewLocalSpace(LocalConfig{Dim: 8, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3})
	x := make([]float64, 8)
	ctx := context.Background()
	batch := make([]Point, 1)
	cycle := func() {
		batch[0] = s.NewPoint(x)
		for i := 0; i < 3; i++ {
			if err := s.SampleBatch(ctx, batch, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		batch[0].Close()
	}
	cycle() // warm: one body on the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perCycle := float64(after.TotalAlloc-before.TotalAlloc) / cycles; perCycle > budget {
		t.Errorf("NewPoint + 3 draws + Close on a warm space: %.1f B per cycle, budget %d", perCycle, budget)
	}
}

// TestSlabPointsCannotOverlap: coordinates carved from one slab come with
// cap == len, so appending to a point's X() copies instead of writing into
// the next point's coordinates; and NewPoint copies its argument.
func TestSlabPointsCannotOverlap(t *testing.T) {
	s := NewLocalSpace(LocalConfig{Dim: 3, F: func(x []float64) float64 { return x[0] }, Seed: 1})
	x := []float64{1, 2, 3}
	a := s.NewPoint(x)
	x[0] = 9 // the caller's buffer is free again
	b := s.NewPoint(x)
	if xa := a.X(); cap(xa) != len(xa) {
		t.Fatalf("X() has cap %d, len %d", cap(xa), len(xa))
	}
	_ = append(a.X(), 42)
	if got := b.X(); got[0] != 9 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("neighbour's coordinates changed to %v", got)
	}
	if got := a.X(); got[0] != 1 {
		t.Fatalf("NewPoint kept the caller's buffer: %v", got)
	}
	// Restored points carve from the same slab under the same rule.
	st, err := s.ExportPoint(a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RestorePoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if xr := r.X(); cap(xr) != len(xr) || xr[0] != 1 {
		t.Fatalf("restored X() = %v with cap %d", xr, cap(xr))
	}
}
