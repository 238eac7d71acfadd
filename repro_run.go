package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// Run is the single public entry point for optimization: it covers plain,
// restarted, and resumed runs of every registered strategy through
// functional options.
//
//	res, err := repro.Run(ctx, space,
//	    repro.WithAlgorithm(repro.PC),
//	    repro.WithUniformSimplex(seed, -5, 5),
//	    repro.WithBudget(1e5),
//	)
//
// With no options, Run executes the PC policy with the paper's default
// parameters; a starting simplex (WithInitialSimplex, WithUniformSimplex, or
// WithResume) is required. Options apply in order, so later options win when
// they touch the same setting. Invalid combinations (resume plus an explicit
// initial simplex, checkpointing a strategy that cannot resume, an empty
// draw box, ...) return descriptive errors before any sampling happens.
//
// Cancellation is a termination criterion, not an error: when ctx ends, the
// run stops within one sampling round and the Result reports Termination
// "canceled".
func Run(ctx context.Context, space Space, opts ...RunOption) (*Result, error) {
	r, err := NewRunner(opts...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, space)
}

// Runner is a reusable, validated bundle of Run options: build it once with
// NewRunner and execute it on any number of spaces (one at a time). The
// zero value is not useful; a Runner is immutable after construction, so it
// is safe for concurrent use with distinct spaces.
type Runner struct {
	spec core.RunSpec
}

// NewRunner validates the option set and returns a reusable Runner.
// Strategy-specific validation (simplex shape against the space dimension,
// swarm parameters) happens per Run call, since it needs the space.
func NewRunner(opts ...RunOption) (*Runner, error) {
	o := &runOptions{spec: core.RunSpec{Strategy: "pc", Config: core.DefaultConfig(core.PC)}}
	for _, opt := range opts {
		if opt == nil {
			o.errs = append(o.errs, errors.New("repro: nil RunOption"))
			continue
		}
		opt(o)
	}
	if o.setInitial && o.setBox {
		o.errs = append(o.errs, errors.New("repro: WithInitialSimplex and WithUniformSimplex are mutually exclusive"))
	}
	if o.setResume && o.setInitial {
		o.errs = append(o.errs, errors.New("repro: WithResume and WithInitialSimplex are mutually exclusive (the snapshot already carries the simplex)"))
	}
	if err := errors.Join(o.errs...); err != nil {
		return nil, err
	}
	return &Runner{spec: o.spec}, nil
}

// Run executes the configured optimization on the space under ctx.
func (r *Runner) Run(ctx context.Context, space Space) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return core.Run(ctx, space, r.spec)
}

// Strategy returns the canonical name of the strategy the Runner resolves
// to, or an error for an unknown name.
func (r *Runner) Strategy() (string, error) {
	s, err := core.LookupStrategy(r.spec.Strategy)
	if err != nil {
		return "", err
	}
	return s.Name(), nil
}

// runOptions accumulates the option set; misuse is collected as errors and
// reported by NewRunner rather than panicking mid-configuration.
type runOptions struct {
	spec       core.RunSpec
	setInitial bool
	setBox     bool
	setResume  bool
	errs       []error
}

// RunOption configures one aspect of a Run call.
type RunOption func(*runOptions)

// WithAlgorithm selects one of the NM-family decision policies (DET, MN, PC,
// PCMN, AndersonNM) by its Algorithm value. For non-simplex strategies such
// as "pso" use WithStrategy.
func WithAlgorithm(alg Algorithm) RunOption {
	return func(o *runOptions) {
		o.spec.Strategy = alg.String()
		o.spec.Config.Algorithm = alg
	}
}

// WithStrategy selects the optimizer by strategy-registry name — any value
// from Strategies(), canonical or alias, case-insensitive: "pc", "pc+mn"
// (aliases "pcmn", "pc-mn"), "pso", "hybrid", ...
func WithStrategy(name string) RunOption {
	return func(o *runOptions) { o.spec.Strategy = name }
}

// WithConfig replaces the full optimizer configuration (decision-policy
// parameters, sampling schedule, budgets, callbacks) and selects the
// strategy matching cfg.Algorithm. Use it when an option for a niche Config
// field does not exist.
func WithConfig(cfg Config) RunOption {
	return func(o *runOptions) {
		o.spec.Config = cfg
		o.spec.Strategy = cfg.Algorithm.String()
	}
}

// WithInitialSimplex starts the run from an explicit simplex of d+1 vertices
// of dimension d — the one piece of human input the paper deliberately does
// not automate.
func WithInitialSimplex(vertices [][]float64) RunOption {
	return func(o *runOptions) {
		if vertices == nil {
			vertices = [][]float64{}
		}
		o.spec.Initial = vertices
		o.setInitial = true
	}
}

// WithUniformSimplex draws the starting simplex with coordinates uniform
// over [lo, hi) from seed — the shared draw used by the CLIs and job specs,
// so one seed reproduces the same start everywhere. For the pso and hybrid
// strategies the same box bounds the swarm and the seed drives it.
func WithUniformSimplex(seed int64, lo, hi float64) RunOption {
	return func(o *runOptions) {
		if !(lo < hi) {
			o.errs = append(o.errs, fmt.Errorf("repro: WithUniformSimplex box [%v, %v) is empty", lo, hi))
			return
		}
		o.spec.Seed = seed
		o.spec.Lo, o.spec.Hi = lo, hi
		o.spec.HasBox = true
		o.setBox = true
	}
}

// WithRestarts enables the paper's §1.3.5.1 restart strategy: after each
// convergence a fresh simplex is rebuilt around the incumbent, n times. The
// scale gives the rebuilt simplex's edge lengths: one value per dimension, a
// single value broadcast to every dimension, or none for 1.0 everywhere.
func WithRestarts(n int, scale ...float64) RunOption {
	return func(o *runOptions) {
		if n < 0 {
			o.errs = append(o.errs, fmt.Errorf("repro: WithRestarts(%d): restarts must be >= 0", n))
			return
		}
		o.spec.Restarts = n
		o.spec.RestartScale = append([]float64(nil), scale...)
	}
}

// WithRestartDecay multiplies the restart scale by f after each leg (default
// 0.5), so later restarts probe progressively finer neighbourhoods.
func WithRestartDecay(f float64) RunOption {
	return func(o *runOptions) { o.spec.ScaleDecay = f }
}

// WithCheckpoint delivers a Snapshot of the complete optimizer state to fn
// every `every` iterations (every iteration when every <= 0). The space must
// implement Snapshotter and the strategy must support resume. A run resumed
// from any delivered snapshot (WithResume) is bitwise identical to the
// uninterrupted run.
func WithCheckpoint(fn func(*Snapshot), every int) RunOption {
	return func(o *runOptions) {
		o.spec.Config.Checkpoint = fn
		o.spec.Config.CheckpointEvery = every
	}
}

// WithResume continues a checkpointed run from its snapshot instead of
// starting fresh. The space must be built from the same construction
// parameters (objective, noise law, seed) as the snapshotted run.
func WithResume(snap *Snapshot) RunOption {
	return func(o *runOptions) {
		if snap == nil {
			o.errs = append(o.errs, errors.New("repro: WithResume: nil snapshot"))
			return
		}
		o.spec.Resume = snap
		o.setResume = true
	}
}

// WithSpeculation enables batch-speculative candidate evaluation for the
// NM-family strategies: each simplex step submits the reflection, expansion
// and contraction candidates (plus the shrink vertices when a collapse is
// plausible) as one sampling batch before the decision, listed (and so
// dispatched) in that order, then keeps the accepted move and discards the
// rest. A step costs one batch
// round-trip instead of up to four sequential ones, cutting per-step latency
// on pools of >= 3 workers at the price of some discarded evaluations
// (Result.SpeculativeWaste). Speculative runs are bitwise-deterministic at
// any worker count and checkpoint/resume-exact, but follow a different —
// equally valid — trajectory than sequential runs. The space must be a
// LocalSpace, whose live points are unbounded; backends that pin each live
// point to a bounded worker rank, like the MW deployment, are rejected with
// a descriptive error before any sampling.
func WithSpeculation() RunOption {
	return func(o *runOptions) { o.spec.Config.Speculative = true }
}

// WithAdaptiveSamples replaces the fixed initial sampling allotment of fresh
// points with variance-adaptive growth: every new point samples in
// geometrically growing rounds until the confidence half-width of its
// estimate (1.96 sigma; override via WithConfig's AdaptiveZ) falls to
// halfWidth. The driver remembers the largest allotment a point needed and
// starts subsequent points there, a counter that is part of the snapshot
// state, so checkpoint/resume stays bitwise-exact. It applies to the
// NM-family strategies (and the simplex leg of the hybrid); the pso swarm
// phase samples on its own schedule.
func WithAdaptiveSamples(halfWidth float64) RunOption {
	return func(o *runOptions) {
		if halfWidth <= 0 {
			o.errs = append(o.errs, fmt.Errorf("repro: WithAdaptiveSamples(%v): half-width must be positive", halfWidth))
			return
		}
		o.spec.Config.AdaptiveSamples = true
		o.spec.Config.AdaptiveHalfWidth = halfWidth
	}
}

// WithTrace registers a per-iteration progress callback (one TraceEvent per
// simplex step, or per swarm update for pso-family strategies).
func WithTrace(fn func(TraceEvent)) RunOption {
	return func(o *runOptions) { o.spec.Config.Trace = fn }
}

// WithBudget bounds the run to walltime virtual seconds of sampling (the
// paper's second termination criterion). Zero means unlimited.
func WithBudget(walltime float64) RunOption {
	return func(o *runOptions) { o.spec.Config.MaxWalltime = walltime }
}

// WithMaxIterations caps the simplex steps. Zero means unlimited.
func WithMaxIterations(n int) RunOption {
	return func(o *runOptions) { o.spec.Config.MaxIterations = n }
}

// WithTolerance sets the spread termination tolerance (eq 2.9); zero
// disables the tolerance criterion (run to budget).
func WithTolerance(tol float64) RunOption {
	return func(o *runOptions) { o.spec.Config.Tol = tol }
}

// WithConfidence sets the k-sigma confidence separation: the PC comparison
// multiplier K and the MN wait factor MNK together, matching the -k flag of
// the CLIs. For pso-family strategies it is the best-update confidence.
func WithConfidence(k float64) RunOption {
	return func(o *runOptions) {
		o.spec.Config.K = k
		o.spec.Config.MNK = k
	}
}

// WithSwarm sizes the pso-family global phase: particles in the swarm and
// the number of swarm updates. Zero keeps a value at the strategy default
// (20 particles, 60 updates).
func WithSwarm(particles, iterations int) RunOption {
	return func(o *runOptions) {
		if particles < 0 || iterations < 0 {
			o.errs = append(o.errs, fmt.Errorf("repro: WithSwarm(%d, %d): sizes must be >= 0", particles, iterations))
			return
		}
		o.spec.Particles = particles
		o.spec.SwarmIters = iterations
	}
}

// Strategy registry surface. A Strategy is one pluggable optimizer; the
// five NM-family policies plus "pso" and "hybrid" are registered by default.
// Third-party optimizers implement Strategy (against the re-exported Space,
// RunSpec and Result types) and call RegisterStrategy from an init function;
// from then on they are selectable by name through Run, job specs and the
// optd HTTP API. See docs/ARCHITECTURE.md for the contract.
type (
	// Strategy is the pluggable-optimizer interface (name, validate,
	// run-from-state, resumability).
	Strategy = core.Strategy
	// RunSpec is the resolved run description a Strategy consumes.
	RunSpec = core.RunSpec
	// StrategyInfo describes one registered strategy.
	StrategyInfo = core.StrategyInfo
)

// RegisterStrategy adds a strategy (plus optional alias names) to the
// process-wide registry. It panics on duplicates; call it from init.
func RegisterStrategy(s Strategy, aliases ...string) { core.Register(s, aliases...) }

// Strategies returns the canonical names of every registered strategy,
// sorted.
func Strategies() []string { return core.Strategies() }

// StrategyInfos describes every registered strategy (name, aliases,
// resumability, NM-family policy if any), sorted by name.
func StrategyInfos() []StrategyInfo { return core.StrategyInfos() }
