package optroot

import (
	"math"

	"repro/internal/stats"
)

// Evaluator runs $OPTROOT script batches as one simulation client of the MW
// deployment (it implements mw.SystemEvaluator): each Sample runs one
// complete batch of simulations and property calculations at the started
// point, and Report gives the running mean of the batch costs with the
// variance of that mean. This is genuine repeated sampling — the noise
// decays as 1/sqrt(batches), matching eq 1.2 with time counted in batches.
// The property calculators read every system's output, so one client runs
// the whole batch: deploy it with Ns = 1.
//
// A failed batch reports cost +Inf with variance 0 until the next Start, so
// the simplex steers away from broken parameter regions instead of aborting
// the optimization; the point runs no further batches, and Root.Err keeps
// the first failure.
type Evaluator struct {
	root    *Root
	x       []float64
	costs   stats.Welford
	batches int
	failed  bool
}

// NewEvaluator returns a script-batch client over the tree. Evaluators of
// one Root may sample concurrently.
func (r *Root) NewEvaluator() *Evaluator { return &Evaluator{root: r} }

// Start implements mw.SystemEvaluator: it discards the previous point's
// batches and failure. x is read, never written.
func (e *Evaluator) Start(x []float64) { *e = Evaluator{root: e.root, x: x} }

// Sample implements mw.SystemEvaluator: it runs one script batch. dt is
// ignored; time is counted in batches.
func (e *Evaluator) Sample(float64) {
	e.batches++
	if e.failed {
		return
	}
	ev, err := e.root.Evaluate(e.x)
	if err != nil {
		e.root.noteErr(err)
		e.failed = true
		return
	}
	e.costs.Add(ev.Cost)
}

// Report implements mw.SystemEvaluator: the mean batch cost, the variance
// of that mean (0 below two batches), and the batch count.
func (e *Evaluator) Report() (mean, variance, t float64) {
	t = float64(e.batches)
	switch {
	case e.failed:
		return math.Inf(1), 0, t
	case e.costs.N() < 2:
		return e.costs.Mean(), 0, t
	}
	se := e.costs.StdErr()
	return e.costs.Mean(), se * se, t
}

// Stop implements mw.SystemEvaluator: it drops the point.
func (e *Evaluator) Stop() { e.Start(nil) }
