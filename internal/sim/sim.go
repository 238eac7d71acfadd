// Package sim defines the sampling abstraction through which the optimization
// algorithms observe an objective function, mirroring the separation in the
// paper between the simplex logic (master) and the sampling simulations
// (workers/servers/clients).
//
// An optimizer never sees a function value directly; it sees a Point that can
// be sampled for additional virtual time and queried for its current Estimate
// (running mean plus the standard deviation of that mean). Backends decide how
// sampling is executed:
//
//   - LocalSpace runs sampling in-process, fanning each batch out over the
//     sched worker pool when its increments carry a simulation cost; it is
//     used by unit tests, the experiments, and as the leaf evaluator inside
//     MW clients. Every point owns a private deterministic noise stream, so
//     where an increment runs never changes results.
//   - The mw package provides a Space that farms SampleAll batches out to
//     worker processes over the master-worker framework, reproducing the
//     paper's parallel deployment.
//
// Backends additionally implementing BatchSampler expose the concurrent,
// context-aware sampling path (SampleBatch) the optimizer prefers.
package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// Sampling metrics (obs registry). Counted at batch granularity on the
// single success hook every sampling path funnels through
// (advanceBatch), so the per-draw overhead is two atomic adds amortized
// over the whole batch. sim_draws_total is the rate source for the
// draws/sec the paper's N comparisons are denominated in.
var (
	mDraws = obs.Default().Counter("sim_draws_total",
		"sampling increments performed (in-process and fleet)")
	mPoints = obs.Default().Counter("sim_points_total",
		"points created or restored from a checkpoint; sim_draws_total over this is the draws one stream seeding is spread across")
	mSampleBatches = obs.Default().Counter("sim_batches_total",
		"completed sampling batches across all spaces")
	mAdaptiveRounds = obs.Default().Counter("sim_adaptive_rounds_total",
		"variance-adaptive resampling growth rounds taken by SampleAdaptive")
)

// Estimate is the optimizer-visible state of a sampled point.
type Estimate struct {
	// Mean is the current running estimate of g(theta).
	Mean float64
	// Sigma is the standard deviation of Mean. Depending on the backend's
	// SigmaMode it is either the true sigma0/sqrt(t) or a batch estimate.
	Sigma float64
	// Time is the accumulated sampling time t of the point.
	Time float64
}

// Point is one location in parameter space with accumulated sampling state.
type Point interface {
	// X returns the coordinates of the point. Callers must not mutate the
	// returned slice.
	X() []float64
	// Estimate returns the current estimate of the objective at the point.
	Estimate() Estimate
	// Sample accrues dt more virtual seconds of sampling at this point and
	// advances the space's wall clock according to the backend's execution
	// model (a lone Sample is serial; use Space.SampleAll for concurrency).
	Sample(dt float64)
	// Close releases the resources (worker assignment, file handles)
	// associated with the point. The paper keeps objective evaluations
	// "active on each of the d+1 vertices until it is certain that they are
	// no longer needed"; Close is that certainty signal.
	Close()
}

// Space creates points and coordinates batch sampling.
type Space interface {
	// Dim returns the dimension of the parameter space.
	Dim() int
	// NewPoint starts an objective evaluation at x. The returned point has
	// zero sampling time; callers sample it before comparing estimates.
	NewPoint(x []float64) Point
	// SampleAll samples every point for dt virtual seconds. Backends that
	// model parallel hardware advance the wall clock by dt once for the
	// whole batch (all vertices sample concurrently, section 4.3); serial
	// backends advance it len(points)*dt.
	SampleAll(points []Point, dt float64)
	// Clock exposes the virtual wall clock for termination budgets and
	// trace timestamps.
	Clock() *vtime.Clock
	// Evaluations returns the cumulative number of sampling increments
	// performed, the cost unit used in the paper's N comparisons.
	Evaluations() int64
}

// BatchSampler is the optional concurrent face of a Space: SampleAll with a
// context. Backends that implement it execute the batch's per-point sampling
// concurrently (LocalSpace through the sched worker pool, mw.Space across its
// vertex workers) and honour cancellation between point dispatches. The
// virtual-clock semantics are identical to SampleAll.
type BatchSampler interface {
	// SampleBatch samples every point for dt virtual seconds, returning
	// ctx.Err() if the context is canceled before the batch completes. On a
	// non-nil error the batch is partial: some points may have accrued the
	// increment and the wall clock has not advanced.
	SampleBatch(ctx context.Context, points []Point, dt float64) error
}

// SampleBatch samples the batch through the space's concurrent path when it
// has one, else through plain SampleAll. It is the single entry point the
// optimizer uses, so every backend gains cancellation support as soon as it
// implements BatchSampler.
func SampleBatch(ctx context.Context, space Space, points []Point, dt float64) error {
	if bs, ok := space.(BatchSampler); ok {
		return bs.SampleBatch(ctx, points, dt)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	space.SampleAll(points, dt)
	return nil
}

// SigmaMode selects which noise estimate a backend reports to the optimizer.
type SigmaMode int

const (
	// SigmaKnown reports the true sigma0/sqrt(t) (the controlled-noise
	// studies of sections 3.2-3.3 inject noise of known strength).
	SigmaKnown SigmaMode = iota
	// SigmaEstimated reports a batch-statistics estimate, modelling real
	// applications where sigma0 "is not known ahead of time" (section 1.1).
	SigmaEstimated
)

// LocalConfig configures a LocalSpace.
type LocalConfig struct {
	// Dim is the parameter-space dimension.
	Dim int
	// F is the underlying deterministic objective.
	F func(x []float64) float64
	// Sigma0 returns the inherent noise strength at x. A nil Sigma0 means a
	// noiseless objective. The paper allows sigma0 to vary over parameter
	// space ("some models may be noisier than others").
	Sigma0 func(x []float64) float64
	// Seed seeds the deterministic noise stream.
	Seed int64
	// Mode selects true or estimated sigma reporting.
	Mode SigmaMode
	// Parallel, if true, advances the wall clock once per SampleAll batch
	// (concurrent vertices); if false each point's sampling is serialized
	// on the clock. This is a virtual-time accounting choice, independent of
	// Workers (the real CPU concurrency).
	Parallel bool
	// Workers bounds the real goroutine concurrency of batch sampling:
	// 0 picks automatically from the grain of an increment — serial
	// in-caller execution when sampling is cost-free (no SampleCost; a noise
	// draw is nanoseconds, cheaper than waking a worker), else Pool when one
	// is offered, else the process-wide shared scheduler (GOMAXPROCS
	// workers). 1 forces serial execution, >= 2 gives the space its own
	// worker pool of that size (release it with Close). Because every point
	// draws noise from a private per-point stream, results are bitwise
	// identical for every Workers setting.
	Workers int
	// SampleCost, if non-nil, is invoked once per sampling increment with
	// the point's coordinates and the increment dt, modelling the CPU cost
	// of the underlying simulation (an MD trajectory segment in the paper's
	// TIP4P study). The noise draw itself is nanoseconds; SampleCost is what
	// makes concurrent batch sampling pay off on real objectives, and what
	// the sched benchmarks exercise. It must be safe for concurrent calls.
	SampleCost func(x []float64, dt float64)
	// Pool, if non-nil, is an externally owned scheduler offering capacity
	// for costed increments: a space with a SampleCost (or Workers >= 2)
	// dispatches its batches on it, overriding Workers; a cost-free space
	// never calls into it (see Workers). Many spaces may share one Pool —
	// the jobs manager multiplexes every concurrent optimization over a
	// single worker fleet this way. The space never closes a shared Pool.
	Pool *sched.Scheduler
	// Tenant labels this space's batch submissions on the Pool, so a shared
	// scheduler can divide fleet capacity by tenant weight (weighted
	// fair-share, see sched.Policy). Empty means the scheduler's default
	// ("") queue. Tenancy only affects who waits, never what is sampled:
	// results stay bitwise identical for any Tenant labeling.
	Tenant string
	// Fleet, if non-nil, farms every batch's sampling increments out to a
	// remote worker fleet (internal/dist) instead of the in-process pool.
	// FleetObjective must name, in the workers' catalogs, the same function
	// F computes; results stay bitwise identical to in-process runs at any
	// fleet size and under worker death (see fleet.go). SampleCost is not
	// invoked locally in fleet mode — the simulation cost is the workers'.
	Fleet FleetSampler
	// FleetObjective names the objective remote workers evaluate. Required
	// when Fleet is set.
	FleetObjective string
}

// ConstSigma adapts a constant noise strength to the Sigma0 signature.
func ConstSigma(s float64) func([]float64) float64 {
	return func([]float64) float64 { return s }
}

// LocalSpace is the in-process sampling backend. Costed batches fan out over
// a sched worker pool, cost-free ones run in the caller; every point owns a
// deterministic noise stream seeded from (space seed, creation index), so
// serial and concurrent execution produce bitwise-identical results.
type LocalSpace struct {
	cfg   LocalConfig
	clock vtime.Clock
	pool  *sched.Scheduler // nil: increments are cost-free and run in the caller
	owned bool             // pool belongs to this space and is closed by Close

	evals atomic.Int64

	mu         sync.Mutex
	nextStream int64
}

// NewLocalSpace builds an in-process sampling backend.
func NewLocalSpace(cfg LocalConfig) *LocalSpace {
	if cfg.Dim <= 0 {
		panic("sim: LocalConfig.Dim must be positive")
	}
	if cfg.F == nil {
		panic("sim: LocalConfig.F must be set")
	}
	if cfg.Fleet != nil && cfg.FleetObjective == "" {
		panic("sim: LocalConfig.Fleet requires FleetObjective")
	}
	s := &LocalSpace{cfg: cfg}
	switch {
	case cfg.SampleCost == nil && (cfg.Workers == 0 || cfg.Workers == 1):
		// Cost-free: any dispatch, even onto an offered Pool, costs more than
		// the draws it parallelizes, so batches run in the caller. A costed
		// serial space still gets a pool, for its per-index cancellation.
	case cfg.Pool != nil:
		s.pool = cfg.Pool
	case cfg.Workers == 0:
		s.pool = sched.Shared()
	default:
		s.pool = sched.New(sched.Config{Workers: cfg.Workers})
		s.owned = true
	}
	return s
}

// Close releases the space's worker pool when it owns one (an explicit
// Workers in the config). Other spaces need no Close.
func (s *LocalSpace) Close() {
	if s.owned {
		s.pool.Close()
	}
}

// Workers returns the real concurrency bound of batch sampling.
func (s *LocalSpace) Workers() int {
	if s.pool == nil {
		return 1
	}
	return s.pool.Workers()
}

// Dim implements Space.
func (s *LocalSpace) Dim() int { return s.cfg.Dim }

// Clock implements Space.
func (s *LocalSpace) Clock() *vtime.Clock { return &s.clock }

// Evaluations implements Space.
func (s *LocalSpace) Evaluations() int64 { return s.evals.Load() }

// NewPoint implements Space.
func (s *LocalSpace) NewPoint(x []float64) Point {
	if len(x) != s.cfg.Dim {
		panic("sim: NewPoint dimension mismatch")
	}
	xc := make([]float64, len(x))
	copy(xc, x)
	sigma0 := 0.0
	if s.cfg.Sigma0 != nil {
		sigma0 = s.cfg.Sigma0(xc)
	}
	s.mu.Lock()
	stream := s.nextStream
	s.nextStream++
	s.mu.Unlock()
	seed := sched.StreamSeed(s.cfg.Seed, stream)
	mPoints.Inc()
	return &localPoint{
		space:     s,
		x:         xc,
		streamIdx: stream,
		seed:      seed,
		stream:    noise.NewStream(s.cfg.F(xc), sigma0, seed),
	}
}

// SampleAll implements Space. All points accrue dt of sampling; the wall
// clock advances dt once in parallel mode, len(points)*dt in serial mode.
// A failed batch (sampling on a closed space) panics, matching mw.Space.
func (s *LocalSpace) SampleAll(points []Point, dt float64) {
	// context.Background never cancels, so the only non-panic error left is
	// sched.ErrClosed — a use-after-Close, which must not pass silently.
	if err := s.SampleBatch(context.Background(), points, dt); err != nil {
		panic(fmt.Sprintf("sim: SampleAll: %v", err))
	}
}

// SampleBatch implements BatchSampler: the per-point sampling runs
// concurrently on the space's worker pool, or in the caller when cost-free.
// On cancellation the wall clock does not advance and the batch is partial.
func (s *LocalSpace) SampleBatch(ctx context.Context, points []Point, dt float64) error {
	if len(points) == 0 {
		return ctx.Err()
	}
	if s.cfg.Fleet != nil {
		return s.sampleFleet(ctx, s.checkBatch(points), dt, nil)
	}
	if s.pool == nil {
		return s.sampleInCaller(ctx, points, dt)
	}
	// The pool path validates in place and dispatches by index — no
	// []*localPoint staging slice, so a batch costs one closure plus the
	// pool's fixed dispatch overhead regardless of size.
	s.validateBatch(points)
	if err := s.pool.DoNAs(ctx, s.cfg.Tenant, len(points), func(i int) {
		points[i].(*localPoint).sample(dt)
	}); err != nil {
		return err
	}
	s.advanceBatch(len(points), dt)
	return nil
}

// sampleInCaller is the whole batch path of a cost-free space. Nothing
// queues, so there is no rank to honour, and a batch is a few dozen draws of
// tens of nanoseconds, so the context is checked once, on entry.
//
//optlint:noalloc
func (s *LocalSpace) sampleInCaller(ctx context.Context, points []Point, dt float64) error {
	s.validateBatch(points)
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, p := range points {
		p.(*localPoint).sample(dt)
	}
	s.advanceBatch(len(points), dt)
	return nil
}

// validateBatch asserts every point is a live localPoint, without building
// the typed slice the fleet path needs.
func (s *LocalSpace) validateBatch(points []Point) {
	for _, p := range points {
		lp, ok := p.(*localPoint)
		if !ok {
			panic("sim: SampleAll received a foreign Point")
		}
		if lp.closed {
			panic("sim: Sample on closed point")
		}
	}
}

// checkBatch asserts every point is a live localPoint of this space.
func (s *LocalSpace) checkBatch(points []Point) []*localPoint {
	lps := make([]*localPoint, len(points))
	for i, p := range points {
		lp, ok := p.(*localPoint)
		if !ok {
			panic("sim: SampleAll received a foreign Point")
		}
		if lp.closed {
			panic("sim: Sample on closed point")
		}
		lps[i] = lp
	}
	return lps
}

// advanceBatch applies the virtual-clock accounting of one completed batch:
// dt once under the parallel execution model, n*dt serially.
func (s *LocalSpace) advanceBatch(n int, dt float64) {
	mSampleBatches.Inc()
	mDraws.Add(int64(n))
	if s.cfg.Parallel {
		s.clock.Advance(dt)
	} else {
		s.clock.Advance(float64(n) * dt)
	}
}

type localPoint struct {
	space     *LocalSpace
	x         []float64
	streamIdx int64
	seed      int64
	stream    *noise.Stream
	closed    bool
}

func (p *localPoint) X() []float64 { return p.x }

func (p *localPoint) Estimate() Estimate {
	sigma := p.stream.Sigma()
	if p.space.cfg.Mode == SigmaEstimated {
		sigma = p.stream.SigmaEst()
	}
	return Estimate{Mean: p.stream.Mean(), Sigma: sigma, Time: p.stream.Time()}
}

func (p *localPoint) Sample(dt float64) {
	if p.closed {
		panic("sim: Sample on closed point")
	}
	if p.space.cfg.Fleet != nil {
		// A lone Sample is a one-point fleet batch; like SampleAll, the only
		// non-panic failure (a dead fleet) must not pass silently.
		if err := p.space.sampleFleet(context.Background(), []*localPoint{p}, dt, nil); err != nil {
			panic(fmt.Sprintf("sim: Sample: %v", err))
		}
		return
	}
	p.sample(dt)
	mDraws.Inc()
	p.space.clock.Advance(dt)
}

// sample performs one increment: the (optional) simulated CPU cost, the
// noise draw from the point's private stream, and the evaluation count. It
// is the unit of work dispatched to the sched pool and touches no state
// shared across points except the atomic counter.
//
//optlint:noalloc
func (p *localPoint) sample(dt float64) {
	if p.closed {
		panic("sim: Sample on closed point")
	}
	if p.space.cfg.SampleCost != nil {
		p.space.cfg.SampleCost(p.x, dt)
	}
	p.stream.Sample(dt)
	p.space.evals.Add(1)
}

func (p *localPoint) Close() { p.closed = true }

// Underlying reports the noise-free objective value of a point when the
// backend knows it (LocalSpace does). Experiment harnesses use it for the R
// performance measure; optimizers must not.
func Underlying(p Point) (float64, bool) {
	if lp, ok := p.(*localPoint); ok {
		return lp.stream.Underlying(), true
	}
	return 0, false
}
