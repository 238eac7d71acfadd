// Package sim defines the sampling abstraction through which the optimization
// algorithms observe an objective function, mirroring the separation in the
// paper between the simplex logic (master) and the sampling simulations
// (workers/servers/clients).
//
// An optimizer never sees a function value directly; it sees a Point whose
// current Estimate (running mean plus the standard deviation of that mean)
// grows sharper as the Space samples it. Sampling has one entry point,
// Space.SampleBatch: a batch is one joined unit, as in the paper's concurrent
// vertex sampling (section 3.1). It returns once every point has landed, and
// where there is any dispatch order (the sched pool, the dist fleet) it is
// the batch's list order. Backends decide how a batch executes:
//
//   - LocalSpace runs sampling in-process, fanning each batch out over the
//     sched worker pool when its increments carry a simulation cost, or over
//     a remote dist fleet when one is attached (LocalConfig.Fleet); it is
//     used by unit tests, the experiments, the jobs service, and as the leaf
//     evaluator inside MW clients. Every point owns a private deterministic
//     noise stream, so where an increment runs never changes results.
//   - The mw package provides a Space over the paper's parallel
//     deployment: d+3 vertex slots, each pinned to one live point, whose Ns
//     simulation-client evaluators it calls directly.
package sim

import (
	"context"
	"math"
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
	// returned slice. Its capacity may equal its length (LocalSpace carves
	// coordinates from a shared slab), so appending to it copies.
	X() []float64
	// Estimate returns the current estimate of the objective at the point.
	Estimate() Estimate
	// Close releases the resources (worker assignment, file handles)
	// associated with the point. The paper keeps objective evaluations
	// "active on each of the d+1 vertices until it is certain that they are
	// no longer needed"; Close is that certainty signal.
	Close()
}

// Space creates points and samples them in batches.
type Space interface {
	// Dim returns the dimension of the parameter space.
	Dim() int
	// NewPoint starts an objective evaluation at x. The returned point has
	// zero sampling time; callers sample it before comparing estimates.
	// NewPoint copies x: the caller may reuse it as soon as NewPoint returns
	// (the optimizer computes every trial point in one scratch buffer).
	NewPoint(x []float64) Point
	// SampleBatch samples every point for dt virtual seconds. Backends that
	// model parallel hardware advance the wall clock by dt once for the
	// whole batch (all vertices sample concurrently, section 4.3); serial
	// backends advance it len(points)*dt. An empty batch leaves the clock
	// where it was.
	//
	// A point of another space, a closed point, or a point listed twice
	// panics before anything is sampled. A context canceled on entry
	// returns ctx.Err() with nothing sampled. On any other non-nil error the
	// batch is partial: some points may have accrued the increment, and the
	// wall clock has not advanced.
	SampleBatch(ctx context.Context, points []Point, dt float64) error
	// Clock exposes the virtual wall clock for termination budgets and
	// trace timestamps.
	Clock() *vtime.Clock
	// Evaluations returns the cumulative number of sampling increments
	// performed, the cost unit used in the paper's N comparisons.
	Evaluations() int64
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
	// Dim is the parameter-space dimension. A point is one allocation plus
	// Dim coordinates carved from a slab the space grows geometrically,
	// starting at Dim+1 points (one simplex).
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
	// Parallel, if true, advances the wall clock once per sampled batch
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
//
// Every batch path refuses a point listed twice, so each stream has a single
// owner for the batch's duration and is sampled without a lock.
type LocalSpace struct {
	cfg   LocalConfig
	clock vtime.Clock
	pool  *sched.Scheduler // nil: increments are cost-free and run in the caller
	owned bool             // pool belongs to this space and is closed by Close

	evals   atomic.Int64
	batches atomic.Uint64 // the last batch stamp handed out (see check)

	mu         sync.Mutex
	nextStream int64
	slab       []float64 // guarded by mu: coordinates not yet carved by a point
	slabPoints int       // guarded by mu: points the current slab was sized for
}

// maxSlabPoints caps slab growth: a live point keeps its whole slab alive,
// and a space's last slab is partly unused when its run ends.
const maxSlabPoints = 64

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
	s.mu.Lock()
	stream := s.nextStream
	s.nextStream++
	xc := s.carveLocked()
	s.mu.Unlock()
	copy(xc, x)
	mPoints.Inc()
	return s.newPoint(xc, stream)
}

// carveLocked cuts the next Dim coordinates off the slab, with a full slice
// expression so that an append to one point's X() cannot overwrite its
// neighbour's. A spent slab is replaced by one twice its size, starting at
// one simplex (Dim+1 points) and capped at maxSlabPoints.
func (s *LocalSpace) carveLocked() []float64 {
	d := s.cfg.Dim
	if len(s.slab) < d {
		s.slabPoints = min(max(2*s.slabPoints, d+1), maxSlabPoints)
		s.slab = make([]float64, s.slabPoints*d)
	}
	xc := s.slab[:d:d]
	s.slab = s.slab[d:]
	return xc
}

// newPoint builds the point at coordinates xc (owned by the point from now
// on) drawing noise from stream index idx: one allocation, stream included.
func (s *LocalSpace) newPoint(xc []float64, idx int64) *localPoint {
	sigma0 := 0.0
	if s.cfg.Sigma0 != nil {
		sigma0 = s.cfg.Sigma0(xc)
	}
	p := &localPoint{space: s, x: xc, streamIdx: idx}
	p.stream.Init(s.cfg.F(xc), sigma0, sched.StreamSeed(s.cfg.Seed, idx))
	return p
}

// SampleBatch implements Space: the per-point sampling runs concurrently on
// the space's worker pool or fleet, or in the caller when cost-free.
func (s *LocalSpace) SampleBatch(ctx context.Context, points []Point, dt float64) error {
	if len(points) == 0 {
		return ctx.Err()
	}
	if s.cfg.Fleet != nil {
		return s.sampleFleet(ctx, s.checkBatch(points), dt)
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
// queues, and a batch is a few dozen draws of tens of nanoseconds, so the
// context is checked once, on entry.
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

// validateBatch asserts every point is a live point of this space listed
// once, without building the typed slice the fleet path needs. It runs
// before anything is sampled, so a refused batch leaves no trace.
func (s *LocalSpace) validateBatch(points []Point) {
	stamp := s.batches.Add(1)
	for _, p := range points {
		s.check(p, stamp)
	}
}

// checkBatch is validateBatch returning the typed points.
func (s *LocalSpace) checkBatch(points []Point) []*localPoint {
	stamp := s.batches.Add(1)
	lps := make([]*localPoint, len(points))
	for i, p := range points {
		lps[i] = s.check(p, stamp)
	}
	return lps
}

// check asserts p is a live point of this space that the batch stamped
// stamp has not listed yet, and marks it listed: O(1) per point, no set.
// Stamps are unique per space, so a mark left by an earlier batch never
// matches.
func (s *LocalSpace) check(p Point, stamp uint64) *localPoint {
	lp, ok := p.(*localPoint)
	if !ok || lp.space != s {
		panic("sim: SampleBatch received a foreign Point")
	}
	if lp.closed() {
		panic("sim: SampleBatch on closed point")
	}
	if lp.stamp == stamp {
		panic("sim: a point appears twice in one batch")
	}
	lp.stamp = stamp
	return lp
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

// localPoint is one allocation: its stream lives inside it and its
// coordinates in the space's slab.
type localPoint struct {
	space     *LocalSpace
	x         []float64
	streamIdx int64  // seeds the stream: sched.StreamSeed(space seed, streamIdx)
	stamp     uint64 // the last batch that listed the point (see check), or closedStamp
	stream    noise.Stream
}

// closedStamp is the stamp of a closed point; no batch is ever given it.
const closedStamp = math.MaxUint64

func (p *localPoint) closed() bool { return p.stamp == closedStamp }

func (p *localPoint) X() []float64 { return p.x }

func (p *localPoint) Estimate() Estimate {
	sigma := p.stream.Sigma()
	if p.space.cfg.Mode == SigmaEstimated {
		sigma = p.stream.SigmaEst()
	}
	return Estimate{Mean: p.stream.Mean(), Sigma: sigma, Time: p.stream.Time()}
}

// sample performs one increment: the (optional) simulated CPU cost, the
// noise draw from the point's private stream, and the evaluation count. It
// is the unit of work dispatched to the sched pool and touches no state
// shared across points except the atomic counter.
//
//optlint:noalloc
func (p *localPoint) sample(dt float64) {
	if p.closed() {
		panic("sim: Sample on closed point")
	}
	if p.space.cfg.SampleCost != nil {
		p.space.cfg.SampleCost(p.x, dt)
	}
	p.stream.Sample(dt)
	p.space.evals.Add(1)
}

func (p *localPoint) Close() { p.stamp = closedStamp }

// Underlying reports the noise-free objective value of a point when the
// backend knows it (LocalSpace does). Experiment harnesses use it for the R
// performance measure; optimizers must not.
func Underlying(p Point) (float64, bool) {
	if lp, ok := p.(*localPoint); ok {
		return lp.stream.Underlying(), true
	}
	return 0, false
}
