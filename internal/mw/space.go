// Package mw is the paper's master-worker deployment (section 3.1, Figure
// 3.2) as a sim.Space: a master, d+3 vertex workers, and Ns simulation
// clients under each worker's vertex server.
//
// The deployment is plain data. Each of the d+3 vertex slots holds the Ns
// SystemEvaluators built once by SpaceConfig.NewSystem; the master is the
// caller of NewPoint and SampleBatch. Nothing crosses a process boundary,
// so the transports of the original (MW's messages, the worker-server
// files, the server-client MPI) are not simulated: a slot's evaluators are
// called directly, one goroutine per evaluator, as the Ns clients under all
// active vertices would run at once.
//
// Vertex affinity ("each worker is logically associated with a vertex
// object") is kept: NewPoint pins a point to a free slot for its lifetime,
// so its accumulated sampling state stays with that slot's evaluators, and
// each slot's evaluators, with their noise streams, run on across every
// point the slot later hosts. At most d+3 points are live at once.
package mw

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/sim"
	"repro/internal/vtime"
)

// SpaceConfig configures an MW-backed sampling space.
type SpaceConfig struct {
	// Dim is the parameter-space dimension; the deployment uses Dim+3
	// workers (one per vertex plus two trial vertices, section 3.1).
	Dim int
	// Ns is the number of simulation clients under each vertex server.
	Ns int
	// NewSystem builds the evaluator for client sys (0-based) of worker
	// rank (1-based). NewSpace calls it once per client.
	NewSystem func(rank, sys int) SystemEvaluator
}

// ProcessCounts is the process accounting of a deployment (Table 3.3).
type ProcessCounts struct {
	Masters, Workers, Servers, Clients int
}

// Total returns the total process count.
func (p ProcessCounts) Total() int {
	return p.Masters + p.Workers + p.Servers + p.Clients
}

// ExpectedProcesses evaluates the paper's formula for a d-dimensional
// optimization with Ns simulations per vertex: 1 master, d+3 workers, d+3
// servers and (d+3)*Ns clients, totalling d*Ns + 3*Ns + 2d + 7 (section 3.1).
func ExpectedProcesses(d, ns int) int {
	return d*ns + 3*ns + 2*d + 7
}

// Space is the parallel sampling backend: a sim.Space whose points live on
// MW vertex slots. Each point is pinned to one slot for its lifetime, and a
// sampled batch advances the virtual wall clock once, modelling the
// concurrent sampling of all active vertices.
type Space struct {
	cfg   SpaceConfig
	clock vtime.Clock
	// slots[rank-1] holds the Ns client evaluators of worker rank.
	slots [][]SystemEvaluator
	free  chan int

	mu    sync.Mutex
	evals int64
	live  []bool // live[rank-1]: a point is started on the slot
	down  bool
}

// errShutdown is returned by SampleBatch on a shut-down space.
var errShutdown = errors.New("mw: space is shut down")

// NewSpace builds the full two-level deployment: 1 master, Dim+3 workers,
// Dim+3 servers, (Dim+3)*Ns clients.
func NewSpace(cfg SpaceConfig) (*Space, error) {
	if cfg.Dim < 1 {
		return nil, errors.New("mw: SpaceConfig.Dim must be >= 1")
	}
	if cfg.Ns < 1 {
		return nil, errors.New("mw: SpaceConfig.Ns must be >= 1")
	}
	if cfg.NewSystem == nil {
		return nil, errors.New("mw: SpaceConfig.NewSystem is required")
	}
	workers := cfg.Dim + 3
	s := &Space{
		cfg:   cfg,
		slots: make([][]SystemEvaluator, workers),
		free:  make(chan int, workers),
		live:  make([]bool, workers),
	}
	for rank := 1; rank <= workers; rank++ {
		clients := make([]SystemEvaluator, cfg.Ns)
		for sys := range clients {
			clients[sys] = cfg.NewSystem(rank, sys)
		}
		s.slots[rank-1] = clients
		s.free <- rank
	}
	return s, nil
}

// Dim implements sim.Space.
func (s *Space) Dim() int { return s.cfg.Dim }

// Clock implements sim.Space.
func (s *Space) Clock() *vtime.Clock { return &s.clock }

// Evaluations implements sim.Space.
func (s *Space) Evaluations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evals
}

// Processes counts the live deployment from the slots and evaluators the
// space built: 1 master, and per slot a worker, a server and its clients.
// It is zero after Shutdown.
func (s *Space) Processes() ProcessCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ProcessCounts{}
	}
	c := ProcessCounts{Masters: 1}
	for _, clients := range s.slots {
		c.Workers++
		c.Servers++
		c.Clients += len(clients)
	}
	return c
}

// NewPoint implements sim.Space: it claims a free vertex slot and starts an
// evaluation on each of its clients. With more than Dim+3 concurrently
// active points, NewPoint blocks until one is closed — the paper's hard
// resource bound of d+3 active vertices.
func (s *Space) NewPoint(x []float64) sim.Point {
	if len(x) != s.cfg.Dim {
		panic("mw: NewPoint dimension mismatch")
	}
	rank := <-s.free
	s.mu.Lock()
	down := s.down
	s.live[rank-1] = !down
	s.mu.Unlock()
	if down {
		s.free <- rank
		panic(errShutdown.Error())
	}
	xc := append([]float64(nil), x...)
	each(s.slots[rank-1], func(e SystemEvaluator) { e.Start(xc) })
	return &mwPoint{
		space: s,
		rank:  rank,
		x:     xc,
		est:   sim.Estimate{Mean: math.NaN(), Sigma: math.Inf(1)},
	}
}

// SampleBatch implements sim.Space: every point samples for dt concurrently
// on its own pinned vertex slot, one goroutine per client, and the wall
// clock advances dt once. The context is checked once, before anything is
// sampled. A vertex estimate is the mean of its client means, with variance
// (1/Ns^2) * sum of client variances (independent systems) and the least
// client sampling time, aggregated in client order.
func (s *Space) SampleBatch(ctx context.Context, points []sim.Point, dt float64) error {
	mps := make([]*mwPoint, len(points))
	for i, p := range points {
		mp, ok := p.(*mwPoint)
		switch {
		case !ok || mp.space != s:
			panic("mw: SampleBatch received a foreign Point")
		case mp.closed:
			panic("mw: SampleBatch on closed point")
		case slices.Contains(mps[:i], mp):
			panic("mw: a point appears twice in one batch")
		}
		mps[i] = mp
	}
	if err := ctx.Err(); err != nil || len(mps) == 0 {
		return err
	}
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return errShutdown
	}
	ns := s.cfg.Ns
	type report struct{ mean, variance, t float64 }
	reports := make([]report, len(mps)*ns)
	var wg sync.WaitGroup
	for i, mp := range mps {
		for sys, e := range s.slots[mp.rank-1] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Sample(dt)
				r := &reports[i*ns+sys]
				r.mean, r.variance, r.t = e.Report()
			}()
		}
	}
	wg.Wait()
	nsF := float64(ns)
	for i, mp := range mps {
		var meanSum, varSum float64
		tMin := math.Inf(1)
		for _, r := range reports[i*ns : (i+1)*ns] {
			meanSum += r.mean
			varSum += r.variance
			tMin = math.Min(tMin, r.t)
		}
		mp.est = sim.Estimate{Mean: meanSum / nsF, Sigma: math.Sqrt(varSum / (nsF * nsF)), Time: tMin}
	}
	s.mu.Lock()
	s.evals += int64(len(mps) * ns)
	s.mu.Unlock()
	s.clock.Advance(dt)
	return nil
}

// Shutdown tears down the whole deployment: the clients of every live point
// are stopped, and the space samples nothing more. It must not run
// concurrently with sampling.
func (s *Space) Shutdown() {
	s.mu.Lock()
	live := slices.Clone(s.live)
	clear(s.live)
	wasDown := s.down
	s.down = true
	s.mu.Unlock()
	if wasDown {
		return
	}
	for i, clients := range s.slots {
		if live[i] {
			each(clients, func(e SystemEvaluator) { e.Stop() })
		}
	}
}

// each runs f on every client evaluator, one goroutine per client, and waits
// for all of them.
func each(clients []SystemEvaluator, f func(e SystemEvaluator)) {
	var wg sync.WaitGroup
	for _, e := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(e)
		}()
	}
	wg.Wait()
}

type mwPoint struct {
	space  *Space
	rank   int
	x      []float64
	est    sim.Estimate
	closed bool
}

func (p *mwPoint) X() []float64 { return p.x }

func (p *mwPoint) Estimate() sim.Estimate { return p.est }

// Close stops the point's clients and frees its slot for another vertex.
func (p *mwPoint) Close() {
	if p.closed {
		return
	}
	p.closed = true
	s := p.space
	s.mu.Lock()
	live := s.live[p.rank-1]
	s.live[p.rank-1] = false
	s.mu.Unlock()
	if live {
		each(s.slots[p.rank-1], func(e SystemEvaluator) { e.Stop() })
	}
	s.free <- p.rank
}
