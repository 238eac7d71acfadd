package sim

import (
	"context"
	"math"
	"testing"
)

func adaptiveTestSpace(workers int) *LocalSpace {
	return NewLocalSpace(LocalConfig{
		Dim:      2,
		F:        func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Sigma0:   ConstSigma(2),
		Seed:     5,
		Parallel: true,
		Workers:  workers,
	})
}

// TestSampleAdaptiveReachesHalfWidth verifies the growth loop: points start
// far above the half-width target and must grow their sampling until
// z*sigma <= target, identically at every worker count.
func TestSampleAdaptiveReachesHalfWidth(t *testing.T) {
	plan := AdaptivePlan{HalfWidth: 0.5, Z: 2, Grow: 2, MaxRounds: 30}
	var ref []Estimate
	var refRounds int
	for _, workers := range []int{1, 4, 8} {
		s := adaptiveTestSpace(workers)
		pts := []Point{s.NewPoint([]float64{1, 0}), s.NewPoint([]float64{0, 1}), s.NewPoint([]float64{1, 1})}
		rounds, err := SampleAdaptive(context.Background(), s, pts, 1, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rounds == 0 {
			t.Fatal("no growth rounds despite a tight half-width")
		}
		ests := make([]Estimate, len(pts))
		for i, p := range pts {
			ests[i] = p.Estimate()
			if got := plan.Z * ests[i].Sigma; got > plan.HalfWidth {
				t.Errorf("workers=%d point %d: half-width %v above target %v", workers, i, got, plan.HalfWidth)
			}
		}
		if ref == nil {
			ref, refRounds = ests, rounds
			continue
		}
		if rounds != refRounds {
			t.Errorf("workers=%d: %d rounds, want %d", workers, rounds, refRounds)
		}
		for i := range ests {
			if ests[i] != ref[i] {
				t.Errorf("workers=%d point %d: estimate %+v differs from serial %+v", workers, i, ests[i], ref[i])
			}
		}
		s.Close()
	}
}

// TestSampleAdaptiveRoundCap verifies MaxRounds bounds the growth even when
// the target is unreachable.
func TestSampleAdaptiveRoundCap(t *testing.T) {
	s := adaptiveTestSpace(1)
	pts := []Point{s.NewPoint([]float64{1, 1})}
	rounds, err := SampleAdaptive(context.Background(), s, pts, 1,
		AdaptivePlan{HalfWidth: 1e-12, Grow: 2, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d, want the cap 3", rounds)
	}
}

// TestSampleAdaptiveClampStops verifies a clamp that exhausts the budget
// stops the loop instead of sampling a zero increment.
func TestSampleAdaptiveClampStops(t *testing.T) {
	s := adaptiveTestSpace(1)
	pts := []Point{s.NewPoint([]float64{1, 1})}
	budget := 5.0
	clamp := func(dt float64) float64 { return math.Min(dt, budget-s.Clock().Now()) }
	rounds, err := SampleAdaptive(context.Background(), s, pts, 1,
		AdaptivePlan{HalfWidth: 1e-12, Grow: 2, MaxRounds: 50, Clamp: clamp})
	if err != nil {
		t.Fatal(err)
	}
	if rounds >= 50 {
		t.Fatalf("clamp did not stop the loop (rounds=%d)", rounds)
	}
	if now := s.Clock().Now(); now > budget {
		t.Fatalf("clock %v overshot the clamp budget %v", now, budget)
	}
}
