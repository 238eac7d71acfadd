package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vtime"
)

// Optimizer metrics (obs registry): iteration throughput, the simplex
// move mix, and discarded speculative evaluations. Move counters are
// indexed by Move so the per-iteration cost is two atomic adds.
var (
	mIterations = obs.Default().Counter("core_iterations_total",
		"simplex iterations completed across all runs")
	mMoves = [...]*obs.Counter{
		MoveNone:     obs.Default().Counter(`core_moves_total{move="none"}`, "iterations by applied simplex transformation"),
		MoveReflect:  obs.Default().Counter(`core_moves_total{move="reflect"}`),
		MoveExpand:   obs.Default().Counter(`core_moves_total{move="expand"}`),
		MoveContract: obs.Default().Counter(`core_moves_total{move="contract"}`),
		MoveCollapse: obs.Default().Counter(`core_moves_total{move="collapse"}`),
	}
	mSpecWaste = obs.Default().Counter("core_speculative_waste_total",
		"prefetched speculative candidate evaluations discarded unused")
)

// freshOptimizer builds a leg's optimizer on an initial simplex (d+1
// vertices of dimension d, checked by nmStrategy.Validate) and samples every
// vertex. The initial simplex is the one piece of human input the paper
// deliberately does not automate ("the total cost of the optimization can
// depend dramatically on the initial state of the simplex"). A canceled first
// batch is not an error: the optimizer's run then reports Termination
// "canceled" at once.
func freshOptimizer(ctx context.Context, space sim.Space, initial [][]float64, cfg Config) (*optimizer, error) {
	o := newOptimizer(ctx, space, cfg, space.Dim())
	o.start = o.clock.Now()
	o.adaptiveFloor = cfg.InitialSample
	o.verts = make([]sim.Point, len(initial))
	for i, v := range initial {
		o.verts[i] = space.NewPoint(v)
	}
	// All initial vertices sample concurrently: the MW deployment keeps one
	// worker per vertex busy from the start (section 3.1).
	if err := o.sampleFresh(o.verts); err != nil && o.term == "" {
		o.finish()
		return nil, err
	}
	return o, nil
}

type optimizer struct {
	space sim.Space
	cfg   Config
	d     int
	clock *vtime.Clock
	ctx   context.Context
	start float64

	verts    []sim.Point // d+1 simplex vertices
	trials   []sim.Point // live trial points, refilled by candidateSet.refresh
	level    int         // contraction level l (section 2.2)
	lastMove Move        // transformation applied in the latest iteration

	// Step scratch, reused by every iteration; no backend keeps a batch
	// slice past the call, and NewPoint copies its coordinates.
	cs    candidateSet   // the step's candidates, reset by newCandidates
	batch []sim.Point    // one sampling call: a resample round, a lone fresh point, a collapse's vertices
	est   []sim.Estimate // the vertices' estimates, read once per decision (see estimates)
	cent  []float64      // the step's centroid
	xbuf  []float64      // the trial point being computed

	// adaptiveFloor is the current initial-sampling allotment for fresh
	// points under Config.AdaptiveHalfWidth: it starts at InitialSample and is
	// raised to the largest total sampling time a fresh point needed to meet
	// the confidence half-width, so later points receive the learned
	// allotment up front instead of re-growing from the floor. It is part
	// of the snapshot state (Snapshot.AdaptiveFloor).
	adaptiveFloor float64

	res  Result
	term string
}

// newOptimizer builds the run state freshOptimizer and restoreOptimizer start
// from, with the scratch of a d-dimensional step at full size: at most 3+d
// trial points (three moves and the shrink vertices), and a resample round
// over them and the d+1 vertices.
func newOptimizer(ctx context.Context, space sim.Space, cfg Config, d int) *optimizer {
	geom := make([]float64, 2*d)
	o := &optimizer{
		space: space, cfg: cfg, d: d, clock: space.Clock(), ctx: ctx,
		trials: make([]sim.Point, 0, 3+d),
		batch:  make([]sim.Point, 0, 4+2*d),
		est:    make([]sim.Estimate, 0, d+1),
		cent:   geom[:d:d],
		xbuf:   geom[d:],
	}
	o.cs.shrink = make([]sim.Point, 0, d)
	return o
}

// run drives the main loop. Each pass is one simplex iteration.
func (o *optimizer) run() (*Result, error) {
	for {
		if o.checkTermination() {
			break
		}
		var err error
		switch o.cfg.Algorithm {
		case DET:
			err = o.stepNM(waitNone)
		case MN:
			err = o.stepNM(waitMaxNoise)
		case AndersonNM:
			err = o.stepNM(waitAnderson)
		case PC:
			err = o.stepPC(false)
		case PCMN:
			err = o.stepPC(true)
		default:
			err = errors.New("core: unknown algorithm")
		}
		if err != nil {
			if o.term == "canceled" {
				// Cancellation surfaced mid-iteration: the step abandoned its
				// move; report what was found so far.
				break
			}
			// A backend failure (e.g. a closed worker pool or a failed fleet)
			// aborts the run; the steps closed their trial points, finish
			// closes the vertices so their MW slots are released for the next
			// run on the space.
			o.finish()
			return nil, err
		}
		o.res.Iterations++
		mIterations.Inc()
		if int(o.lastMove) < len(mMoves) {
			mMoves[o.lastMove].Inc()
		}
		o.stepOverhead()
		o.emitTrace()
		if err := o.emitCheckpoint(); err != nil {
			o.finish()
			return nil, err
		}
	}
	o.finish()
	return &o.res, nil
}

// sampleBatch dispatches one concurrent sampling batch under the run context.
// On cancellation it records the "canceled" termination; any other error
// (a failed backend worker) is passed through for the caller to propagate.
func (o *optimizer) sampleBatch(points []sim.Point, dt float64) error {
	err := o.space.SampleBatch(o.ctx, points, dt)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		o.term = "canceled"
	}
	return err
}

// sampleFresh gives a batch of freshly created points their initial
// allotment: the fixed InitialSample, or — under Config.AdaptiveHalfWidth —
// variance-adaptive growth from the current adaptive floor until every point
// meets the confidence half-width.
func (o *optimizer) sampleFresh(points []sim.Point) error {
	if o.cfg.AdaptiveHalfWidth <= 0 {
		return o.sampleBatch(points, o.cfg.InitialSample)
	}
	plan := sim.AdaptivePlan{
		HalfWidth: o.cfg.AdaptiveHalfWidth,
		Grow:      o.cfg.ResampleGrowth,
		MaxRounds: o.cfg.MaxWaitRounds,
		Clamp:     o.clampDt,
	}
	dt0 := o.clampDt(o.adaptiveFloor)
	if dt0 <= 0 {
		dt0 = o.cfg.InitialSample // budget exhausted: minimal allotment, termination will fire
	}
	rounds, err := sim.SampleAdaptive(o.ctx, o.space, points, dt0, plan)
	o.res.AdaptiveRounds += rounds
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			o.term = "canceled"
		}
		return err
	}
	// Raise the floor to the largest total allotment a resolved point
	// needed, so the next fresh batch starts there instead of re-growing.
	for _, p := range points {
		if t := p.Estimate().Time; t > o.adaptiveFloor {
			o.adaptiveFloor = t
		}
	}
	return nil
}

func (o *optimizer) stepOverhead() {
	oh := o.cfg.OverheadBase + o.cfg.OverheadPerDim*float64(o.d)
	if oh > 0 {
		o.clock.Advance(oh)
	}
}

func (o *optimizer) elapsed() float64 { return o.clock.Now() - o.start }

// estimates reads every vertex's estimate once into the o.est scratch. A
// decision reads the vertices through it rather than calling Estimate per
// comparison: nothing samples while a decision compares, so one read per
// vertex gives the very values repeated calls would.
func (o *optimizer) estimates() []sim.Estimate {
	o.est = o.est[:0]
	for _, v := range o.verts {
		o.est = append(o.est, v.Estimate())
	}
	return o.est
}

// spread returns max_i |g_i - g_min| over the current estimates (eq 2.9).
func (o *optimizer) spread() float64 {
	_, spread := bestAndSpread(o.estimates())
	return spread
}

// bestAndSpread returns, in one pass over est, the index order reports as
// imin (the first lowest mean) and max_i |g_i - g_min| (eq 2.9).
func bestAndSpread(est []sim.Estimate) (imin int, spread float64) {
	min := math.Inf(1)
	max := math.Inf(-1)
	for i, e := range est {
		g := e.Mean
		if g < est[imin].Mean {
			imin = i
		}
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	return imin, max - min
}

func (o *optimizer) checkTermination() bool {
	if o.term != "" {
		return true
	}
	switch {
	case o.ctx.Err() != nil:
		o.term = "canceled"
	case o.spread() <= o.cfg.Tol:
		o.term = "tolerance"
	case o.cfg.MaxWalltime > 0 && o.elapsed() >= o.cfg.MaxWalltime:
		o.term = "walltime"
	case o.cfg.MaxIterations > 0 && o.res.Iterations >= o.cfg.MaxIterations:
		o.term = "iterations"
	default:
		return false
	}
	return true
}

// overBudget reports whether the walltime budget is exhausted; used inside
// wait/resample loops so a stalled decision cannot run past the budget.
func (o *optimizer) overBudget() bool {
	return o.cfg.MaxWalltime > 0 && o.elapsed() >= o.cfg.MaxWalltime
}

// clampDt caps a sampling increment at the remaining walltime budget, so the
// geometrically growing resample rounds cannot overshoot MaxWalltime by more
// than one round's rounding. Returns 0 when no budget remains.
func (o *optimizer) clampDt(dt float64) float64 {
	if o.cfg.MaxWalltime <= 0 {
		return dt
	}
	rem := o.cfg.MaxWalltime - o.elapsed()
	if rem <= 0 {
		return 0
	}
	if dt > rem {
		return rem
	}
	return dt
}

// order returns the indices of the worst (imax), second-worst (ismax) and
// best (imin) vertices by current estimate. It leaves the estimates it
// compared in o.est.
func (o *optimizer) order() (imax, ismax, imin int) {
	est := o.estimates()
	n := len(est)
	imax, imin = 0, 0
	for i := 1; i < n; i++ {
		gi := est[i].Mean
		if gi > est[imax].Mean {
			imax = i
		}
		if gi < est[imin].Mean {
			imin = i
		}
	}
	ismax = -1
	for i := 0; i < n; i++ {
		if i == imax {
			continue
		}
		if ismax == -1 || est[i].Mean > est[ismax].Mean {
			ismax = i
		}
	}
	if ismax == -1 {
		ismax = imin // degenerate d=1 simplex: second-worst is the best
	}
	return imax, ismax, imin
}

// centroid computes the centroid of all vertices except imax into o.cent.
//
//optlint:noalloc
func (o *optimizer) centroid(imax int) {
	c := o.cent
	clear(c)
	n := 0
	for i, v := range o.verts {
		if i == imax {
			continue
		}
		for j, xj := range v.X() {
			c[j] += xj
		}
		n++
	}
	for j := range c {
		c[j] /= float64(n)
	}
}

// The geometry helpers below write into out and return it. Each coordinate
// reads only its own index, so out may alias an input.

// affine sets out = a + t*(b-a), evaluated per coordinate as (1-t)*a + t*b.
//
//optlint:noalloc
func affine(out, a, b []float64, t float64) []float64 {
	for i := range a {
		out[i] = (1-t)*a[i] + t*b[i]
	}
	return out
}

// reflectPoint sets out = 2*cent - xmax (alpha = 1).
//
//optlint:noalloc
func reflectPoint(out, cent, xmax []float64) []float64 {
	for i := range cent {
		out[i] = 2*cent[i] - xmax[i]
	}
	return out
}

// expandPoint sets out = 2*ref - cent (gamma = 2).
//
//optlint:noalloc
func expandPoint(out, ref, cent []float64) []float64 {
	for i := range cent {
		out[i] = 2*ref[i] - cent[i]
	}
	return out
}

// contractPoint sets out = 0.5*xmax + 0.5*cent (beta = 0.5).
//
//optlint:noalloc
func contractPoint(out, xmax, cent []float64) []float64 {
	return affine(out, xmax, cent, 0.5)
}

// newSampled creates a point and gives it the initial sampling allotment
// (adaptive when configured). On a sampling error the point is already
// closed; the caller just abandons the iteration.
func (o *optimizer) newSampled(x []float64) (sim.Point, error) {
	p := o.space.NewPoint(x)
	o.batch = append(o.batch[:0], p)
	if err := o.sampleFresh(o.batch); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// replace installs p as vertex i, closing the displaced point.
func (o *optimizer) replace(i int, p sim.Point) {
	o.verts[i].Close()
	o.verts[i] = p
}

// collapse moves every vertex except imin halfway toward the best vertex and
// restarts sampling there. The contraction level increases by d (section 2.2).
// The fresh vertices are installed before the batch, so even on a canceled
// batch every live point is tracked (and closed by finish).
func (o *optimizer) collapse(imin int) error {
	xmin := o.verts[imin].X()
	o.batch = o.batch[:0]
	for i := range o.verts {
		if i == imin {
			continue
		}
		p := o.space.NewPoint(affine(o.xbuf, o.verts[i].X(), xmin, 0.5))
		o.verts[i].Close()
		o.verts[i] = p
		o.batch = append(o.batch, p)
	}
	err := o.sampleFresh(o.batch)
	o.level += o.d
	o.res.Moves.Collapses++
	return err
}

// collapseWith performs the collapse with pre-created, pre-sampled shrink
// points (the speculative step evaluates them inside the candidate batch):
// the vertices are swapped in with no further sampling round.
func (o *optimizer) collapseWith(imin int, shrink []sim.Point) {
	k := 0
	for i := range o.verts {
		if i == imin {
			continue
		}
		o.verts[i].Close()
		o.verts[i] = shrink[k]
		k++
	}
	o.level += o.d
	o.res.Moves.Collapses++
}

func (o *optimizer) emitTrace() {
	if o.cfg.Trace == nil {
		return
	}
	imin, spread := bestAndSpread(o.estimates())
	best := o.verts[imin]
	underlying := math.NaN()
	if f, ok := sim.Underlying(best); ok {
		underlying = f
	}
	o.cfg.Trace(TraceEvent{
		Iter:             o.res.Iterations,
		Time:             o.elapsed(),
		Best:             o.est[imin].Mean,
		BestX:            append([]float64(nil), best.X()...),
		BestUnderlying:   underlying,
		Spread:           spread,
		Move:             o.lastMove,
		ContractionLevel: o.level,
	})
}

func (o *optimizer) finish() {
	est := o.estimates()
	imin, spread := bestAndSpread(est)
	o.res.BestX = append([]float64(nil), o.verts[imin].X()...)
	o.res.BestG = est[imin].Mean
	o.res.BestSigma = est[imin].Sigma
	o.res.Walltime = o.elapsed()
	o.res.Evaluations = o.space.Evaluations()
	o.res.Termination = o.term
	o.res.FinalSpread = spread
	o.res.ContractionLevel = o.level
	o.res.FinalSimplex = make([][]float64, len(o.verts))
	o.res.FinalValues = make([]float64, len(o.verts))
	for i, v := range o.verts {
		o.res.FinalSimplex[i] = append([]float64(nil), v.X()...)
		o.res.FinalValues[i] = est[i].Mean
		v.Close()
	}
}
