package pso

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// This file plugs the swarm into the core strategy registry, which is what
// makes the paper's §5.2 future-work direction a first-class citizen of the
// whole stack: "pso" and "hybrid" can be selected by name through repro.Run,
// jobs.Spec.Algorithm and the optd HTTP API, and they inherit cancellation
// and tracing from the shared driver. Neither supports checkpoint/resume
// (the swarm state is not snapshottable yet), which Resumable reports so the
// driver and the jobs manager can refuse resume and skip checkpointing.

func init() {
	core.Register(psoStrategy{}, "swarm")
	core.Register(hybridStrategy{}, "pso+nm", "pso+simplex")
}

// swarmConfig derives the swarm parameters from the strategy-agnostic spec:
// the uniform-draw box becomes the search box, the PC confidence multiplier
// becomes the best-update confidence, and the sampling schedule (initial
// allotment, resample increment and growth, round cap, walltime budget)
// carries over field for field.
func swarmConfig(d int, spec *core.RunSpec) config {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range lo {
		lo[i], hi[i] = spec.Lo, spec.Hi
	}
	cfg := defaultConfig(lo, hi)
	c := spec.Config
	cfg.Seed = spec.Seed
	cfg.K = c.K
	cfg.SampleDt = c.InitialSample
	cfg.Resample = c.Resample
	cfg.ResampleGrowth = c.ResampleGrowth
	cfg.MaxRounds = c.MaxWaitRounds
	cfg.MaxWalltime = c.MaxWalltime
	cfg.Trace = c.Trace
	if spec.Particles > 0 {
		cfg.Particles = spec.Particles
	}
	if spec.SwarmIters > 0 {
		cfg.Iterations = spec.SwarmIters
	}
	return cfg
}

// validateSwarmSpec holds the checks shared by the pso and hybrid strategies.
func validateSwarmSpec(name string, space sim.Space, spec *core.RunSpec) error {
	if spec.Initial != nil {
		return fmt.Errorf("pso: strategy %q draws its own swarm; an explicit initial simplex is not supported (provide the search box instead)", name)
	}
	if !spec.HasBox {
		return fmt.Errorf("pso: strategy %q needs a search box: provide uniform bounds (lo, hi)", name)
	}
	if spec.Restarts != 0 {
		return fmt.Errorf("pso: strategy %q does not take restarts (the swarm is the global phase)", name)
	}
	cfg := swarmConfig(space.Dim(), spec)
	return cfg.validate(space.Dim())
}

// psoStrategy runs the plain noise-aware particle swarm.
type psoStrategy struct{}

func (psoStrategy) Name() string    { return "pso" }
func (psoStrategy) Resumable() bool { return false }

func (psoStrategy) Validate(space sim.Space, spec *core.RunSpec) error {
	return validateSwarmSpec("pso", space, spec)
}

func (psoStrategy) Run(ctx context.Context, space sim.Space, spec *core.RunSpec) (*core.Result, error) {
	return runSwarm(ctx, space, swarmConfig(space.Dim(), spec))
}

// hybridStrategy runs the swarm global phase, then the stochastic simplex as
// the local refinement subroutine (§1.3.5.1 / §5.2). The local decision
// policy is spec.Config.Algorithm (PC unless overridden) and the refinement
// simplex edge lengths come from spec.RestartScale (1.0 per dimension by
// default).
type hybridStrategy struct{}

func (hybridStrategy) Name() string    { return "hybrid" }
func (hybridStrategy) Resumable() bool { return false }

func (hybridStrategy) Validate(space sim.Space, spec *core.RunSpec) error {
	if err := validateSwarmSpec("hybrid", space, spec); err != nil {
		return err
	}
	// The local leg must be rejected now, not after the whole swarm phase
	// has sampled.
	if err := spec.Config.Validate(space.Dim()); err != nil {
		return err
	}
	_, err := spec.ScaleVector(space.Dim())
	return err
}

func (hybridStrategy) Run(ctx context.Context, space sim.Space, spec *core.RunSpec) (*core.Result, error) {
	d := space.Dim()
	scale, err := spec.ScaleVector(d)
	if err != nil {
		return nil, err
	}
	global, err := runSwarm(ctx, space, swarmConfig(d, spec))
	if err != nil {
		return nil, err
	}
	if global.Termination == "canceled" || global.BestX == nil {
		// Canceled during the global phase: report the partial swarm result
		// and skip the local refinement.
		global.Termination = "canceled"
		return global, nil
	}
	// The local leg is a plain simplex run (the space already samples
	// through the fleet, if any) from a right-angle simplex around the
	// swarm's best point.
	initial := make([][]float64, d+1)
	initial[0] = global.BestX
	for i := range d {
		v := append([]float64(nil), global.BestX...)
		v[i] += scale[i]
		initial[i+1] = v
	}
	local, err := core.Run(ctx, space, core.RunSpec{
		Strategy: spec.Config.Algorithm.String(),
		Config:   spec.Config,
		Initial:  initial,
	})
	if err != nil {
		return nil, err
	}
	if math.IsNaN(local.BestG) {
		return nil, errors.New("pso: local refinement produced no estimate")
	}
	// Fold the global phase's effort into the returned result so service
	// accounting (job iteration counters, walltime) covers both phases.
	// Evaluations is already cumulative on the space.
	local.Iterations += global.Iterations
	local.ResampleRounds += global.ResampleRounds
	local.Walltime += global.Walltime
	return local, nil
}
