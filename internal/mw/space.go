package mw

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
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
	// rank (1-based). It runs on the client "process".
	NewSystem func(rank, sys int) SystemEvaluator
	// SpoolDir, if non-empty, routes every worker-server conduit through
	// files under SpoolDir/worker-<rank>; otherwise conduits are in-memory.
	SpoolDir string
	// Counts, if non-nil, receives live process accounting (Table 3.3).
	Counts *ProcessCounts
}

// Space is the parallel sampling backend: a sim.Space whose points live on
// MW vertex workers. Each point is pinned to one worker for its lifetime
// ("each worker is logically associated with a vertex object"), and a
// sampled batch advances the virtual wall clock once, modelling the
// concurrent sampling of all active vertices.
type Space struct {
	cfg    SpaceConfig
	driver *Driver
	clock  vtime.Clock
	free   chan int

	mu    sync.Mutex
	evals int64
}

// NewSpace launches the full two-level deployment: 1 master, Dim+3 workers,
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
		cfg:  cfg,
		free: make(chan int, workers),
	}
	driver, err := NewDriver(Config{
		Workers: workers,
		NewTask: func() Task { return &VertexOp{} },
		NewWorker: func(rank int) Worker {
			vcfg := VertexWorkerConfig{
				Ns:        cfg.Ns,
				NewSystem: func(sys int) SystemEvaluator { return cfg.NewSystem(rank, sys) },
				Counts:    cfg.Counts,
			}
			if cfg.SpoolDir != "" {
				vcfg.SpoolDir = filepath.Join(cfg.SpoolDir, fmt.Sprintf("worker-%03d", rank))
			}
			vw, err := NewVertexWorker(vcfg)
			if err != nil {
				return &brokenWorker{err: err}
			}
			return vw
		},
	})
	if err != nil {
		return nil, err
	}
	s.driver = driver
	if cfg.Counts != nil {
		cfg.Counts.Masters.Add(1)
	}
	for rank := 1; rank <= workers; rank++ {
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

// Driver exposes the underlying MW driver for stats and restarts.
func (s *Space) Driver() *Driver { return s.driver }

// NewPoint implements sim.Space: it claims a free vertex worker and starts an
// evaluation there. With more than Dim+3 concurrently active points, NewPoint
// blocks until one is closed — the paper's hard resource bound of d+3 active
// vertices.
func (s *Space) NewPoint(x []float64) sim.Point {
	if len(x) != s.cfg.Dim {
		panic("mw: NewPoint dimension mismatch")
	}
	rank := <-s.free
	xc := append([]float64(nil), x...)
	pending, err := s.driver.SubmitTo(rank, NewStartOp(xc))
	if err == nil {
		err = pending.Wait()
	}
	if err != nil {
		s.free <- rank
		panic(fmt.Sprintf("mw: starting point on worker %d: %v", rank, err))
	}
	return &mwPoint{
		space: s,
		rank:  rank,
		x:     xc,
		est:   sim.Estimate{Mean: math.NaN(), Sigma: math.Inf(1)},
	}
}

// SampleBatch implements sim.Space: every point samples for dt concurrently
// on its own pinned vertex worker, and the wall clock advances dt once. The
// context is checked once, before the first submit; every op is then
// submitted and every submitted op waited on, so nothing lands after return.
// On worker failure the batch is partial and the wall clock does not
// advance.
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
	pds := make([]*Pending, 0, len(mps))
	var err error
	for _, mp := range mps {
		pd, serr := s.driver.SubmitTo(mp.rank, NewSampleOp(dt))
		if serr != nil {
			err = fmt.Errorf("sample on worker %d: %w", mp.rank, serr)
			break
		}
		pds = append(pds, pd)
	}
	for i, pd := range pds {
		if werr := pd.Wait(); werr != nil {
			if err == nil {
				err = fmt.Errorf("sample on worker %d: %w", mps[i].rank, werr)
			}
			continue
		}
		op := pd.Task.(*VertexOp)
		mps[i].est = sim.Estimate{Mean: op.Mean, Sigma: math.Sqrt(op.Variance), Time: op.Time}
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.evals += int64(len(mps) * s.cfg.Ns)
	s.mu.Unlock()
	s.clock.Advance(dt)
	return nil
}

// Shutdown tears down the whole deployment.
func (s *Space) Shutdown() {
	s.driver.Shutdown()
	if s.cfg.Counts != nil {
		s.cfg.Counts.Masters.Add(-1)
	}
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

func (p *mwPoint) Close() {
	if p.closed {
		return
	}
	p.closed = true
	pending, err := p.space.driver.SubmitTo(p.rank, NewStopOp())
	if err == nil {
		err = pending.Wait()
	}
	if err == nil {
		p.space.free <- p.rank
	}
	// A failed stop leaks the slot rather than handing out a worker in an
	// unknown state; the driver's stats surface the failure.
}
