// Package repro is the public facade of this reproduction of "Automated,
// Parallel Optimization Algorithms for Stochastic Functions" (Chahal, 2011).
//
// The library optimizes objective functions observed through sampling noise
// whose variance decays as sigma0^2/t with accumulated sampling time t
// (eq 1.2 of the paper). Four Nelder-Mead-derived decision policies are
// provided — DET (deterministic), MN (max-noise, Algorithm 2), PC
// (point-to-point comparison, Algorithm 3) and PCMN (both, Algorithm 4) —
// plus the Anderson et al. criterion as a baseline, the noise-aware particle
// swarm of the paper's §5.2 future-work direction ("pso"), and a PSO→simplex
// hybrid ("hybrid") that uses the stochastic simplex as the local search
// subroutine of §1.3.5.1.
//
// Everything runs through one entry point, Run, driven by functional
// options:
//
//	space := repro.NewLocalSpace(repro.LocalConfig{
//		Dim:      4,
//		F:        myObjective,          // underlying deterministic value
//		Sigma0:   repro.ConstSigma(10), // eq 1.2 noise strength
//		Seed:     42,
//		Parallel: true,
//	})
//	res, err := repro.Run(ctx, space,
//		repro.WithAlgorithm(repro.PC),
//		repro.WithUniformSimplex(42, -5, 5), // or WithInitialSimplex(...)
//		repro.WithBudget(1e5),               // virtual seconds of sampling
//	)
//
// The same options cover restarted runs (WithRestarts), checkpointed runs
// (WithCheckpoint) and resumed runs (WithResume); NewRunner bundles a
// validated option set for reuse. Optimizers are Strategy implementations
// in a process-wide registry — select one with WithAlgorithm or, by name,
// WithStrategy ("pc", "pc+mn", "pso", "hybrid", ...; Strategies lists
// them), and plug in your own with RegisterStrategy.
//
// For the paper's parallel deployment (master, d+3 vertex workers, servers
// and simulation clients over the MW framework), build a space with
// NewMWSpace; both backends satisfy the same Space interface, so the
// optimizer code is identical.
//
// Both backends sample one batch of points concurrently per call to
// Space.SampleBatch: the local one over the internal/sched worker pool
// (LocalConfig.Workers bounds the in-process concurrency), the MW one across
// its vertex workers. Every local point draws noise from a private
// deterministic stream, so results are bitwise identical for any worker
// count. A canceled context stops any run within one sampling round with
// Termination "canceled".
//
// Above single runs sits the job service: NewJobManager multiplexes many
// concurrent optimizations — first-class jobs with lifecycle states, live
// progress streams, cancellation, and durable checkpoint/recover (the
// paper's §1.3.5.1 restart strategy made durable; see Snapshot /
// WithResume) — over one shared worker fleet. Jobs select their strategy by
// registry name (jobs.Spec.Algorithm), so "pso" and "hybrid" jobs work
// end-to-end. cmd/optd serves the same manager over HTTP/JSON.
package repro

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/mw"
	"repro/internal/sim"
)

// Re-exported algorithm selectors.
const (
	// DET is the deterministic downhill simplex (Algorithm 1).
	DET = core.DET
	// MN is the max-noise algorithm (Algorithm 2).
	MN = core.MN
	// PC is the point-to-point comparison algorithm (Algorithm 3).
	PC = core.PC
	// PCMN combines PC and MN (Algorithm 4).
	PCMN = core.PCMN
	// AndersonNM applies the Anderson et al. noise criterion (eq 2.4).
	AndersonNM = core.AndersonNM
)

// Core optimizer types.
type (
	// Algorithm selects the simplex decision policy.
	Algorithm = core.Algorithm
	// Config controls an optimization run.
	Config = core.Config
	// Result summarizes a completed optimization.
	Result = core.Result
	// TraceEvent is emitted once per simplex iteration.
	TraceEvent = core.TraceEvent
	// ConditionMask selects which PC conditions use error bars.
	ConditionMask = core.ConditionMask
)

// Sampling-space types.
type (
	// Space is the sampling backend interface optimizers consume.
	Space = sim.Space
	// Point is one sampled location in parameter space.
	Point = sim.Point
	// Estimate is a point's current running mean, sigma and sampling time.
	Estimate = sim.Estimate
	// LocalConfig configures the in-process backend (see Workers and
	// SampleCost for the concurrent-sampling knobs).
	LocalConfig = sim.LocalConfig
	// LocalSpace is the in-process backend's concrete type; it exposes
	// Close for spaces that own a private worker pool.
	LocalSpace = sim.LocalSpace
	// MWSpaceConfig configures the parallel master-worker backend.
	MWSpaceConfig = mw.SpaceConfig
	// SystemEvaluator is one simulation system under a vertex server.
	SystemEvaluator = mw.SystemEvaluator
)

// DefaultConfig returns the paper's default parameters for an algorithm.
func DefaultConfig(alg Algorithm) Config { return core.DefaultConfig(alg) }

// ParseAlgorithm converts a CLI name ("det", "mn", "pc", "pc+mn" — aliases
// "pcmn" and "pc-mn" — or "anderson", case-insensitive) into an Algorithm.
// Names resolve through the strategy registry, so ParseAlgorithm and job-
// spec validation can never disagree; strategies with no Algorithm value
// ("pso", "hybrid") are rejected here and must be run via WithStrategy.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Conditions builds an error-bar mask from PC condition numbers 1..7.
func Conditions(nums ...int) ConditionMask { return core.Conditions(nums...) }

// AllConditions enables error bars in every PC condition.
const AllConditions = core.AllConditions

// UniformSimplex draws the d+1 starting vertices with coordinates uniform
// over [lo, hi) from rng — the shared initial-simplex draw, so one seed
// reproduces the same start across the CLI, job specs and library use.
func UniformSimplex(d int, lo, hi float64, rng *rand.Rand) [][]float64 {
	return core.UniformSimplex(d, lo, hi, rng)
}

// NewLocalSpace builds the in-process sampling backend. The concrete type
// exposes Close, which must be called for spaces configured with a private
// worker pool (LocalConfig.Workers >= 1); spaces that sample in the caller
// or on a shared pool (Workers == 0) need no Close.
func NewLocalSpace(cfg LocalConfig) *LocalSpace { return sim.NewLocalSpace(cfg) }

// ConstSigma adapts a constant eq-1.2 noise strength to LocalConfig.Sigma0.
func ConstSigma(s float64) func([]float64) float64 { return sim.ConstSigma(s) }

// NewMWSpace launches the paper's full parallel deployment: one master,
// Dim+3 vertex workers, one server and Ns simulation clients per worker.
// Call Shutdown on the returned space when done.
func NewMWSpace(cfg MWSpaceConfig) (*mw.Space, error) { return mw.NewSpace(cfg) }

// Checkpoint / resume: the paper's §1.3.5.1 restart strategy made durable.
// A Snapshot captures the complete optimizer state at an iteration boundary
// (simplex coordinates, per-vertex sampling estimates and RNG stream
// positions, contraction level, effort counters, virtual clock, restart-leg
// state); a run resumed from it on a freshly built space is bitwise
// identical to the uninterrupted run. Enable with Config.Checkpoint /
// Config.CheckpointEvery.
type (
	// Snapshot is the serializable state of a run at an iteration boundary.
	Snapshot = core.Snapshot
	// RestartState is the cross-leg state inside a restarted run's Snapshot.
	RestartState = core.RestartState
	// Snapshotter is the optional checkpointing face of a Space; LocalSpace
	// implements it.
	Snapshotter = sim.Snapshotter
)

// Distributed sampling fleet: the network realization of the paper's
// master/worker deployment. A FleetCoordinator accepts worker agents
// (cmd/optworker, or in-process FleetWorkers) over TCP with length-prefixed
// frames (a JSON hello/welcome handshake, then the binary task codec),
// dispatches sampling tasks over their registered capacity in submission
// order, and deterministically re-dispatches the outstanding tasks of dead
// workers. It implements FleetSampler, so it plugs
// underneath any run via LocalConfig.Fleet, any job via JobSpec.Fleet, and the optd server via -fleet-addr — with results bitwise
// identical to in-process runs at any fleet size and under worker death.
type (
	// FleetSampler is the remote sampling backend interface a LocalSpace
	// dispatches batches through (see LocalConfig.Fleet).
	FleetSampler = sim.FleetSampler
	// FleetCoordinator owns the fleet: registration, dispatch, heartbeats,
	// deterministic re-dispatch. Create with NewFleetCoordinator.
	FleetCoordinator = dist.Coordinator
	// FleetCoordinatorConfig configures the coordinator (heartbeat interval,
	// death timeout, event log).
	FleetCoordinatorConfig = dist.Config
	// FleetStatus is the coordinator's aggregate state (the "fleet" section
	// of optd's /healthz).
	FleetStatus = dist.Status
	// FleetWorker is one sampling agent; cmd/optworker wraps it, and tests
	// or embedded deployments run it in-process with NewFleetWorker.
	FleetWorker = dist.Worker
	// FleetWorkerConfig configures an agent (coordinator address, capacity,
	// objective catalog, simulated sampling cost).
	FleetWorkerConfig = dist.WorkerConfig
)

// NewFleetCoordinator builds a fleet coordinator; call Listen on it to open
// the worker-registration listener, and Close to shut the fleet down.
func NewFleetCoordinator(cfg FleetCoordinatorConfig) *FleetCoordinator {
	return dist.NewCoordinator(cfg)
}

// NewFleetWorker builds a sampling agent; its Run (one connection) or
// RunLoop (auto-reconnect) executes tasks until the context ends.
func NewFleetWorker(cfg FleetWorkerConfig) *FleetWorker { return dist.NewWorker(cfg) }

// Job service: the in-process form of the cmd/optd server. A JobManager
// multiplexes many concurrent optimization runs — first-class jobs with
// lifecycle states, live progress subscriptions, cancellation, and durable
// checkpoint/recover — over one shared sampling worker fleet.
type (
	// JobManager runs many optimizations as jobs; create with NewJobManager.
	JobManager = jobs.Manager
	// JobManagerConfig configures the manager (run-pool width, fleet size,
	// durable store, tenant quotas, custom objectives).
	JobManagerConfig = jobs.Config
	// JobQuota bounds one tenant's use of the manager: max queued, max
	// running, and a token-bucket submission rate limit. The zero value
	// is unlimited. Set JobManagerConfig.DefaultQuota (or per-tenant
	// overrides in TenantQuotas) to enforce it.
	JobQuota = jobs.Quota
	// JobTenantStats is one tenant's aggregate accounting (queued,
	// running, submitted, rejected), as returned by JobManager.Tenants.
	JobTenantStats = jobs.TenantStats
	// JobSpec describes one job: named objective, dimension, algorithm,
	// noise strength, seed, budgets.
	JobSpec = jobs.Spec
	// JobStatus is the externally visible state of a job.
	JobStatus = jobs.Status
	// JobState is a job lifecycle state (queued, running, done, failed,
	// canceled).
	JobState = jobs.State
	// JobEvent is one element of a job's progress stream.
	JobEvent = jobs.Event
)

// Job lifecycle states.
const (
	JobQueued   = jobs.StateQueued
	JobRunning  = jobs.StateRunning
	JobDone     = jobs.StateDone
	JobFailed   = jobs.StateFailed
	JobCanceled = jobs.StateCanceled
)

// NewJobManager starts an optimization job manager. Close it when done;
// call Recover first in a restarted process to resume checkpointed jobs.
func NewJobManager(cfg JobManagerConfig) (*JobManager, error) { return jobs.New(cfg) }
