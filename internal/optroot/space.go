package optroot

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/sim"
	"repro/internal/vtime"
)

// Space adapts an $OPTROOT tree to the optimizer's sampling interface: each
// time a SampleBatch lists a point, the point runs one complete batch of
// simulations and property calculations, and its estimate is the running
// mean of the batch costs, with the standard error of the mean as sigma. This
// is genuine repeated sampling — the noise decays as 1/sqrt(batches),
// matching eq 1.2 with "time" counted in batches.
type Space struct {
	root  *Root
	clock vtime.Clock

	mu    sync.Mutex
	evals int64
	err   error // first batch failure, surfaced via Err
}

// NewSpace wraps a loaded Root.
func NewSpace(root *Root) *Space { return &Space{root: root} }

// Dim implements sim.Space.
func (s *Space) Dim() int { return s.root.Dim() }

// Clock implements sim.Space.
func (s *Space) Clock() *vtime.Clock { return &s.clock }

// Evaluations implements sim.Space.
func (s *Space) Evaluations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evals
}

// Err returns the first script failure encountered during sampling, if any.
// Script failures surface as +Inf cost estimates so the simplex steers away
// from broken parameter regions instead of aborting the whole optimization.
func (s *Space) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// NewPoint implements sim.Space.
func (s *Space) NewPoint(x []float64) sim.Point {
	if len(x) != s.root.Dim() {
		panic(fmt.Sprintf("optroot: NewPoint dimension %d, want %d", len(x), s.root.Dim()))
	}
	return &rootPoint{space: s, x: append([]float64(nil), x...)}
}

// SampleBatch implements sim.Space: one script batch per point, wall clock
// advanced once (the batches would run concurrently on a cluster). The
// context is checked once, before the first script runs.
func (s *Space) SampleBatch(ctx context.Context, points []sim.Point, dt float64) error {
	rps := make([]*rootPoint, len(points))
	for i, p := range points {
		rp, ok := p.(*rootPoint)
		switch {
		case !ok || rp.space != s:
			panic("optroot: SampleBatch received a foreign Point")
		case rp.closed:
			panic("optroot: SampleBatch on closed point")
		case slices.Contains(rps[:i], rp):
			panic("optroot: a point appears twice in one batch")
		}
		rps[i] = rp
	}
	if err := ctx.Err(); err != nil || len(rps) == 0 {
		return err
	}
	for _, rp := range rps {
		rp.sampleOnce()
	}
	s.clock.Advance(dt)
	return nil
}

type rootPoint struct {
	space  *Space
	x      []float64
	closed bool

	n    int
	mean float64
	m2   float64
}

func (p *rootPoint) X() []float64 { return p.x }

func (p *rootPoint) sampleOnce() {
	ev, err := p.space.root.Evaluate(p.x)
	cost := math.Inf(1)
	if err != nil {
		p.space.mu.Lock()
		if p.space.err == nil {
			p.space.err = err
		}
		p.space.mu.Unlock()
	} else {
		cost = ev.Cost
	}
	p.n++
	d := cost - p.mean
	p.mean += d / float64(p.n)
	p.m2 += d * (cost - p.mean)

	p.space.mu.Lock()
	p.space.evals++
	p.space.mu.Unlock()
}

func (p *rootPoint) Estimate() sim.Estimate {
	if p.n == 0 {
		return sim.Estimate{Mean: math.NaN(), Sigma: math.Inf(1)}
	}
	sigma := 0.0
	if p.n >= 2 {
		sigma = math.Sqrt(p.m2/float64(p.n-1)) / math.Sqrt(float64(p.n))
	}
	return sim.Estimate{Mean: p.mean, Sigma: sigma, Time: float64(p.n)}
}

func (p *rootPoint) Close() { p.closed = true }
