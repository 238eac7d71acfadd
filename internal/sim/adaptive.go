package sim

import (
	"context"
	"math"
)

// Adaptive sampling: instead of a fixed initial allotment, a fresh point is
// sampled in geometrically growing rounds until the confidence half-width of
// its estimate (adaptiveZ * Estimate().Sigma) meets a target. The gate reads
// only completed-batch state, so which points continue is a pure function of
// the noise streams — deterministic at any worker count.

// adaptiveZ is the confidence multiplier of the half-width gate: a 95%
// normal interval.
const adaptiveZ = 1.96

// AdaptivePlan configures variance-adaptive sampling of a batch of fresh
// points.
type AdaptivePlan struct {
	// HalfWidth is the target confidence half-width: a point is resolved
	// when 1.96 * Estimate().Sigma <= HalfWidth. Must be positive.
	HalfWidth float64
	// Grow multiplies the sampling increment after each round (values < 1
	// are treated as 1), so reaching a 1/sqrt(t) noise target takes O(log)
	// rounds.
	Grow float64
	// MaxRounds caps the growth rounds after the initial allotment; a point
	// still above the half-width then keeps its estimate as-is. Zero or
	// negative means no extra rounds.
	MaxRounds int
	// Clamp, if non-nil, limits each round's increment (the optimizer passes
	// its walltime-budget clamp). A clamped increment of <= 0 stops the
	// growth loop.
	Clamp func(dt float64) float64
}

// grow returns the effective per-round growth factor.
func (p *AdaptivePlan) grow() float64 {
	if p.Grow < 1 {
		return 1
	}
	return p.Grow
}

// resolved reports whether a point's estimate meets the half-width target.
func (p *AdaptivePlan) resolved(pt Point) bool {
	sigma := pt.Estimate().Sigma
	if math.IsInf(sigma, 1) {
		return false
	}
	return adaptiveZ*sigma <= p.HalfWidth
}

// SampleAdaptive gives a batch of fresh points a variance-adaptive sampling
// allotment: every point first samples dt0 (one batch), then the
// points whose confidence half-width is still above the plan's target sample
// additional geometrically growing rounds until all resolve, the round cap is
// reached, or the clamp exhausts the budget. It returns the number of growth
// rounds taken.
//
// Determinism: the continue/stop decision for each round reads only the
// estimates of the completed previous round, and each point's estimate is a
// pure function of its private noise stream and its own sampling history, so
// the rounds — and every sampled value — are bitwise identical at any worker
// count.
func SampleAdaptive(ctx context.Context, space Space, points []Point, dt0 float64, plan AdaptivePlan) (rounds int, err error) {
	if err := space.SampleBatch(ctx, points, dt0); err != nil {
		return 0, err
	}
	dt := dt0 * plan.grow()
	var pending []Point // reused across rounds; each round only shrinks it
	for rounds < plan.MaxRounds {
		pending = pending[:0]
		for _, pt := range points {
			if !plan.resolved(pt) {
				pending = append(pending, pt)
			}
		}
		if len(pending) == 0 {
			return rounds, nil
		}
		step := dt
		if plan.Clamp != nil {
			step = plan.Clamp(dt)
		}
		if step <= 0 {
			return rounds, nil
		}
		if err := space.SampleBatch(ctx, pending, step); err != nil {
			return rounds, err
		}
		rounds++
		mAdaptiveRounds.Inc()
		dt *= plan.grow()
	}
	return rounds, nil
}
