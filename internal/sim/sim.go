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
	// Sigma is the standard deviation of Mean: on LocalSpace the true
	// sigma0/sqrt(t) of eq 1.2, on mw.Space what its evaluators report.
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
	// no longer needed"; Close is that certainty signal. A second Close is a
	// no-op. X and Estimate are undefined after Close (LocalSpace panics on
	// them: it reuses a closed point's storage for a later point), and a
	// slice X returned earlier may change.
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

// LocalConfig configures a LocalSpace.
type LocalConfig struct {
	// Dim is the parameter-space dimension. A point's storage is one
	// allocation plus Dim coordinates carved from a slab the space grows
	// geometrically, starting at Dim+1 points (one simplex); a closed
	// point's storage is reused by a later one (see LocalSpace).
	Dim int
	// F is the underlying deterministic objective.
	F func(x []float64) float64
	// Sigma0 returns the inherent noise strength at x. A nil Sigma0 means a
	// noiseless objective. The paper allows sigma0 to vary over parameter
	// space ("some models may be noisier than others").
	Sigma0 func(x []float64) float64
	// Seed seeds the deterministic noise stream.
	Seed int64
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
//
// A point is a handle on a recycled body (see pointBody): Close frees the
// body for the next NewPoint or RestorePoint, and a handle issued for an
// earlier use of a body counts as closed.
type LocalSpace struct {
	cfg   LocalConfig
	clock vtime.Clock
	pool  *sched.Scheduler // nil: increments are cost-free and run in the caller
	owned bool             // pool belongs to this space and is closed by Close

	evals   atomic.Int64
	batches atomic.Uint64 // the last batch stamp handed out (see check)

	mu         sync.Mutex
	nextStream int64
	slab       []float64  // guarded by mu: coordinates not yet carved by a body
	slabPoints int        // guarded by mu: bodies the current slab was sized for
	free       *pointBody // guarded by mu: closed bodies, linked through next
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
	idx := s.nextStream
	s.nextStream++
	b := s.takeLocked()
	s.mu.Unlock()
	mPoints.Inc()
	return s.issue(b, x, idx)
}

// takeLocked returns a body for a new point: the last one closed when there
// is one, else a fresh one with its coordinates carved from the slab.
func (s *LocalSpace) takeLocked() *pointBody {
	if b := s.free; b != nil {
		s.free, b.next = b.next, nil
		return b
	}
	return &pointBody{space: s, x: s.carveLocked()}
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

// issue makes body b the point at x drawing noise from stream index idx and
// returns a handle of b's current generation. A fresh body's handle is the
// one it holds inline, so a point whose body is never reused is one
// allocation; a reused body costs a new handle.
func (s *LocalSpace) issue(b *pointBody, x []float64, idx int64) *localPoint {
	copy(b.x, x)
	b.streamIdx = idx
	sigma0 := 0.0
	if s.cfg.Sigma0 != nil {
		sigma0 = s.cfg.Sigma0(b.x)
	}
	b.stream.Init(s.cfg.F(b.x), sigma0, sched.StreamSeed(s.cfg.Seed, idx))
	if b.gen == 0 {
		b.own = localPoint{b: b}
		return &b.own
	}
	return &localPoint{b: b, gen: b.gen}
}

// release is Close: on a live handle it ends the generation of the handle's
// body and, unless the space has a fleet, puts the body on the free list; on
// a closed handle it does nothing. Under mu, so a handle closed twice, even
// concurrently, frees its body once.
//
// In-caller and pool batches are done with a body when SampleBatch returns:
// sched.DoNAs drains every index it claimed before it returns, canceled or
// not. A fleet batch is not: dist's dispatch frames alias FleetRequest.X,
// the body's coordinates, in the coordinator's send queue, and may be encoded
// after a canceled SampleFleet returns, so a fleet space never reuses a body.
func (s *LocalSpace) release(h *localPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.closed() {
		return
	}
	b := h.b
	b.gen++
	if s.cfg.Fleet == nil {
		b.next = s.free
		s.free = b
	}
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
		points[i].(*localPoint).b.sample(dt)
	}); err != nil {
		return err
	}
	s.advanceBatch(len(points), dt)
	return nil
}

// sampleInCaller is the whole batch path of a cost-free space. Nothing
// queues, and a batch is a few dozen draws of tens of nanoseconds, so the
// context is checked once, on entry, and the batch counts its evaluations
// once, at the end. validateBatch has refused closed points, and a cost-free
// increment is the draw alone, so each point is one Stream.Sample.
//
//optlint:noalloc
func (s *LocalSpace) sampleInCaller(ctx context.Context, points []Point, dt float64) error {
	s.validateBatch(points)
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, p := range points {
		p.(*localPoint).b.stream.Sample(dt)
	}
	s.evals.Add(int64(len(points)))
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

// checkBatch is validateBatch returning the points' bodies.
func (s *LocalSpace) checkBatch(points []Point) []*pointBody {
	stamp := s.batches.Add(1)
	bs := make([]*pointBody, len(points))
	for i, p := range points {
		bs[i] = s.check(p, stamp)
	}
	return bs
}

// check asserts p is a live point of this space that the batch stamped
// stamp has not listed yet, marks it listed and returns its body: O(1) per
// point, no set. Stamps are unique per space, so a mark left by an earlier
// batch, or by an earlier use of a reused body, never matches.
func (s *LocalSpace) check(p Point, stamp uint64) *pointBody {
	h, ok := p.(*localPoint)
	if !ok || h.b.space != s {
		panic("sim: SampleBatch received a foreign Point")
	}
	if h.closed() {
		panic("sim: SampleBatch on closed point")
	}
	b := h.b
	if b.stamp == stamp {
		panic("sim: a point appears twice in one batch")
	}
	b.stamp = stamp
	return b
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

// pointBody is the storage of a LocalSpace point, reused across points: its
// coordinates live in the space's slab and its stream inside it. A body
// serves one point per generation; Close ends the generation and frees the
// body, and the next NewPoint or RestorePoint may take it.
type pointBody struct {
	space     *LocalSpace
	x         []float64
	streamIdx int64      // seeds the stream: sched.StreamSeed(space seed, streamIdx)
	stamp     uint64     // the last batch that listed the body (see check)
	gen       uint64     // the generation of the live handle; bumped by Close
	next      *pointBody // the next free body, while this one is free
	own       localPoint // the body's first handle (generation 0)
	stream    noise.Stream
}

// localPoint is the handle a LocalSpace point is: its body and the
// generation it was issued for. A handle whose generation the body has left
// is closed for good, whatever point the body serves now.
type localPoint struct {
	b   *pointBody
	gen uint64
}

func (p *localPoint) closed() bool { return p.gen != p.b.gen }

// body returns the handle's body, panicking if the handle is closed: a
// reused body would answer for another point.
func (p *localPoint) body() *pointBody {
	if p.closed() {
		panic("sim: use of a closed point")
	}
	return p.b
}

func (p *localPoint) X() []float64 { return p.body().x }

func (p *localPoint) Estimate() Estimate {
	b := p.body()
	return Estimate{Mean: b.stream.Mean(), Sigma: b.stream.Sigma(), Time: b.stream.Time()}
}

func (p *localPoint) Close() { p.b.space.release(p) }

// sample performs one pool increment: the (optional) simulated CPU cost, the
// noise draw from the body's private stream, and the evaluation count. It
// is the unit of work dispatched to the sched pool and touches no state
// shared across points except the atomic counter, which it bumps per
// increment so a canceled pool batch still counts exactly what ran.
// validateBatch has refused closed points.
//
//optlint:noalloc
func (b *pointBody) sample(dt float64) {
	if b.space.cfg.SampleCost != nil {
		b.space.cfg.SampleCost(b.x, dt)
	}
	b.stream.Sample(dt)
	b.space.evals.Add(1)
}

// Underlying reports the noise-free objective value of a point when the
// backend knows it (LocalSpace does). Experiment harnesses use it for the R
// performance measure; optimizers must not.
func Underlying(p Point) (float64, bool) {
	if lp, ok := p.(*localPoint); ok {
		return lp.body().stream.Underlying(), true
	}
	return 0, false
}
