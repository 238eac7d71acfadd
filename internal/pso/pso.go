// Package pso implements the global-optimization extension the paper's
// future-work section proposes (section 5.2) as two strategies of the core
// registry: "pso", particle swarm optimization with the max-noise /
// point-to-point comparison machinery, and "hybrid", which uses the
// stochastic simplex as the local refinement stage ("simplex ... used as a
// local search subroutine within a metaheuristic method", section 1.3.5.1).
// The package exports no run function: both run through core.Run.
//
// Every particle evaluation goes through the same sim.Space sampling
// abstraction as the simplex algorithms, so the swarm sees noisy estimates
// whose precision improves with sampling time (eq 1.2). Personal-best and
// global-best updates can be made at a k-sigma confidence separation with
// resampling, the direct transplant of the PC comparison rule.
package pso

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
)

// config controls a swarm run.
type config struct {
	// Particles is the swarm size.
	Particles int
	// Iterations is the number of swarm updates.
	Iterations int
	// Inertia, Cognitive, Social are the standard PSO coefficients
	// (defaults 0.72, 1.49, 1.49 — the constriction values).
	Inertia, Cognitive, Social float64
	// Lo, Hi bound the search box per dimension.
	Lo, Hi []float64
	// SampleDt is the sampling time given to each fresh evaluation.
	SampleDt float64
	// K is the confidence multiplier for noise-aware best-updates: a
	// candidate replaces a best only when candidate + K*sigma < best -
	// K*sigma, resampling both while indeterminate. K = 0 compares plain
	// means (the noise-blind swarm the paper warns about).
	K float64
	// Resample is the sampling increment per indeterminate round.
	Resample float64
	// ResampleGrowth multiplies the increment each round (>= 1).
	ResampleGrowth float64
	// MaxRounds caps resample rounds per comparison.
	MaxRounds int
	// MaxWalltime bounds the virtual clock (0 = unlimited).
	MaxWalltime float64
	// Seed drives the swarm's own randomness.
	Seed int64
	// Trace, if non-nil, receives one event per swarm update (Iter is the
	// update number, Best/BestX the current global best, Move is MoveNone —
	// the swarm makes no simplex transformations).
	Trace func(core.TraceEvent)
}

// defaultConfig returns standard constriction-coefficient PSO settings with
// noise-aware comparisons at one sigma.
func defaultConfig(lo, hi []float64) config {
	return config{
		Particles:      20,
		Iterations:     60,
		Inertia:        0.72,
		Cognitive:      1.49,
		Social:         1.49,
		Lo:             lo,
		Hi:             hi,
		SampleDt:       1,
		K:              1,
		Resample:       1,
		ResampleGrowth: 2,
		MaxRounds:      20,
	}
}

func (c *config) validate(d int) error {
	if c.Particles < 2 {
		return errors.New("pso: need at least 2 particles")
	}
	if c.Iterations < 1 {
		return errors.New("pso: need at least 1 iteration")
	}
	if len(c.Lo) != d || len(c.Hi) != d {
		return fmt.Errorf("pso: bounds have %d/%d entries, want %d", len(c.Lo), len(c.Hi), d)
	}
	for i := range c.Lo {
		if !(c.Lo[i] < c.Hi[i]) {
			return fmt.Errorf("pso: bounds[%d] = [%v, %v] empty", i, c.Lo[i], c.Hi[i])
		}
	}
	if c.SampleDt <= 0 || c.Resample <= 0 || c.ResampleGrowth < 1 || c.MaxRounds < 0 {
		return errors.New("pso: invalid sampling configuration")
	}
	return nil
}

type particle struct {
	x, v  []float64
	pbest sim.Point
}

// runSwarm runs the swarm on the space with a validated config. Particles are
// initialized uniformly in the box with velocities up to half the box width.
// Every sampling batch is dispatched through the space's concurrent path
// (Space.SampleBatch) under ctx. As in the simplex optimizers, cancellation is
// a termination criterion, not an error: the swarm stops within one sampling
// round and the Result reports Termination "canceled" with the best position
// found so far. The swarm makes no simplex moves, so the move counters stay
// zero and there is no final simplex.
func runSwarm(ctx context.Context, space sim.Space, cfg config) (*core.Result, error) {
	d := space.Dim()
	rng := rand.New(noise.NewSource(cfg.Seed))
	clock := space.Clock()
	start := clock.Now()

	res := &core.Result{}
	canceled := false
	var fatal error
	// sample dispatches one concurrent batch under ctx. Cancellation flips
	// the canceled flag (a termination criterion); any other batch error (a
	// dead backend) is fatal and aborts the run.
	sample := func(pts []sim.Point, dt float64) bool {
		if canceled || fatal != nil {
			return false
		}
		err := space.SampleBatch(ctx, pts, dt)
		switch {
		case err == nil:
			return true
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			canceled = true
		default:
			fatal = err
		}
		return false
	}

	swarm := make([]*particle, 0, cfg.Particles)
	var gbest sim.Point
	closeAll := func() {
		for _, p := range swarm {
			p.pbest.Close()
		}
	}
	for i := 0; i < cfg.Particles; i++ {
		x := make([]float64, d)
		v := make([]float64, d)
		for j := 0; j < d; j++ {
			w := cfg.Hi[j] - cfg.Lo[j]
			x[j] = cfg.Lo[j] + w*rng.Float64()
			v[j] = (rng.Float64() - 0.5) * w
		}
		pt := space.NewPoint(x)
		if !sample([]sim.Point{pt}, cfg.SampleDt) {
			pt.Close()
			if fatal != nil {
				closeAll()
				return nil, fatal
			}
			// Canceled before the swarm finished initializing: report the
			// best of the particles sampled so far, if any.
			res.Termination = "canceled"
			if gbest != nil {
				est := gbest.Estimate()
				res.BestX = append([]float64(nil), gbest.X()...)
				res.BestG = est.Mean
				res.BestSigma = est.Sigma
			}
			res.Walltime = clock.Now() - start
			res.Evaluations = space.Evaluations()
			closeAll()
			return res, nil
		}
		swarm = append(swarm, &particle{x: append([]float64(nil), x...), v: v, pbest: pt})
		if gbest == nil || pt.Estimate().Mean < gbest.Estimate().Mean {
			gbest = pt
		}
	}

	overBudget := func() bool {
		return cfg.MaxWalltime > 0 && clock.Now()-start >= cfg.MaxWalltime
	}
	emitTrace := func() {
		if cfg.Trace == nil {
			return
		}
		est := gbest.Estimate()
		underlying := math.NaN()
		if f, ok := sim.Underlying(gbest); ok {
			underlying = f
		}
		cfg.Trace(core.TraceEvent{
			Iter:           res.Iterations,
			Time:           clock.Now() - start,
			Best:           est.Mean,
			BestX:          append([]float64(nil), gbest.X()...),
			BestUnderlying: underlying,
			Move:           core.MoveNone,
		})
	}

	// confidentlyBelow resolves "a below b" at cfg.K sigma, resampling both
	// while indeterminate; falls back to plain means at the round cap, the
	// walltime budget, or cancellation.
	confidentlyBelow := func(a, b sim.Point) bool {
		if cfg.K == 0 {
			return a.Estimate().Mean < b.Estimate().Mean
		}
		dt := cfg.Resample
		for rounds := 0; ; rounds++ {
			ea, eb := a.Estimate(), b.Estimate()
			if ea.Mean+cfg.K*ea.Sigma < eb.Mean-cfg.K*eb.Sigma {
				return true
			}
			if ea.Mean-cfg.K*ea.Sigma >= eb.Mean+cfg.K*eb.Sigma {
				return false
			}
			if rounds >= cfg.MaxRounds || overBudget() {
				return ea.Mean < eb.Mean
			}
			if !sample([]sim.Point{a, b}, dt) {
				return ea.Mean < eb.Mean
			}
			dt *= cfg.ResampleGrowth
			res.ResampleRounds++
		}
	}

	for iter := 0; iter < cfg.Iterations && !overBudget() && !canceled && fatal == nil; iter++ {
		for _, p := range swarm {
			gx := gbest.X()
			px := p.pbest.X()
			for j := 0; j < d; j++ {
				p.v[j] = cfg.Inertia*p.v[j] +
					cfg.Cognitive*rng.Float64()*(px[j]-p.x[j]) +
					cfg.Social*rng.Float64()*(gx[j]-p.x[j])
				p.x[j] += p.v[j]
				// Reflect at the box bounds.
				if p.x[j] < cfg.Lo[j] {
					p.x[j] = 2*cfg.Lo[j] - p.x[j]
					p.v[j] = -p.v[j]
				}
				if p.x[j] > cfg.Hi[j] {
					p.x[j] = 2*cfg.Hi[j] - p.x[j]
					p.v[j] = -p.v[j]
				}
				if p.x[j] < cfg.Lo[j] {
					p.x[j] = cfg.Lo[j] // degenerate overshoot
				}
			}
			cand := space.NewPoint(p.x)
			if !sample([]sim.Point{cand}, cfg.SampleDt) {
				// Canceled (or failed) mid-update: abandon the candidate and
				// let the outer loop terminate.
				cand.Close()
				break
			}
			if confidentlyBelow(cand, p.pbest) {
				if p.pbest == gbest {
					// The global best is being replaced as a personal best;
					// re-elect below rather than closing a live reference.
					gbest = cand
					p.pbest.Close()
				} else {
					p.pbest.Close()
				}
				p.pbest = cand
			} else {
				cand.Close()
			}
			if p.pbest != gbest && confidentlyBelow(p.pbest, gbest) {
				gbest = p.pbest
			}
		}
		if canceled || fatal != nil {
			break
		}
		res.Iterations++
		emitTrace()
	}
	if fatal != nil {
		closeAll()
		return nil, fatal
	}

	est := gbest.Estimate()
	res.BestX = append([]float64(nil), gbest.X()...)
	res.BestG = est.Mean
	res.BestSigma = est.Sigma
	res.Walltime = clock.Now() - start
	res.Evaluations = space.Evaluations()
	switch {
	case canceled:
		res.Termination = "canceled"
	case res.Iterations < cfg.Iterations:
		res.Termination = "walltime"
	default:
		res.Termination = "iterations"
	}
	closeAll()
	return res, nil
}
