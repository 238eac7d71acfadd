package sim

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// This file is the sampling layer's face of the distributed fleet backend
// (internal/dist): a LocalSpace configured with a FleetSampler farms every
// batch's sampling increments out to remote worker agents instead of its
// in-process sched pool, reproducing the paper's deployment shape — one
// master, many evaluator processes — over TCP.
//
// The determinism argument is the same one that makes the in-process pool
// safe: a sampling increment of point p is a pure function of
// (stream seed, draw index, dt). A fleet request carries exactly that
// identity, the worker reconstructs the stream from the seed, fast-forwards
// to the draw index and returns the draw, and the coordinator applies it
// through noise.Stream.ApplyDraw. The same request therefore yields the same
// bits from any worker, at any fleet size, and after any number of
// re-dispatches — worker death changes only who computed a draw, never its
// value.

// FleetRequest is one sampling increment to execute remotely: the identity of
// the draw (Seed, Skip) and the evaluation the worker performs (Objective at
// X, the expensive simulation being farmed out).
type FleetRequest struct {
	// Objective names the objective function in the worker's catalog.
	Objective string
	// X holds the point's coordinates.
	X []float64
	// Seed is the point's noise-stream seed.
	Seed int64
	// Skip is the number of draws the stream has already consumed; the
	// worker's draw is the (Skip+1)-th normal variate of the seeded stream.
	Skip int
	// Dt is the sampling increment in virtual seconds.
	Dt float64
}

// FleetResult is the worker's answer to one FleetRequest.
type FleetResult struct {
	// Z is the standard-normal draw at position Skip of stream Seed.
	Z float64
	// F is the objective value the worker computed at X. The space checks it
	// against its own noise-free value, so a worker running a different
	// objective implementation fails loudly instead of corrupting the run.
	F float64
}

// FleetSampler is a remote sampling backend: a batch of increments executed
// by worker agents beyond this process. internal/dist's Coordinator
// implements it; a LocalSpace configured with one (LocalConfig.Fleet or
// UseFleet) routes SampleBatch through it.
type FleetSampler interface {
	// SampleFleet executes every request and returns the results in request
	// order, blocking until all have landed or ctx ends. On a non-nil error
	// no results were applied and the batch may be partially executed
	// remotely (discarded).
	SampleFleet(ctx context.Context, reqs []FleetRequest) ([]FleetResult, error)
}

// UseFleet reroutes the space's batch sampling through a remote fleet. The
// objective name must resolve, on every worker, to the same function the
// space was built with. It must be called before any point is created: a
// space that has already sampled has stream state the fleet would not know
// about.
func (s *LocalSpace) UseFleet(fleet FleetSampler, objective string) error {
	if fleet == nil {
		return fmt.Errorf("sim: UseFleet: nil fleet")
	}
	if objective == "" {
		return fmt.Errorf("sim: UseFleet: empty objective name")
	}
	s.mu.Lock()
	started := s.nextStream != 0
	s.mu.Unlock()
	if started || s.evals.Load() != 0 {
		return fmt.Errorf("sim: UseFleet on a space that has already created points")
	}
	s.cfg.Fleet = fleet
	s.cfg.FleetObjective = objective
	return nil
}

// sampleFleet executes one batch remotely: one request per point, listed
// (and so dispatched) in point order, results applied to the points' streams
// in the same order. The virtual-clock accounting is identical to the
// in-process path.
func (s *LocalSpace) sampleFleet(ctx context.Context, lps []*localPoint, dt float64) error {
	reqs := make([]FleetRequest, len(lps))
	for i, lp := range lps {
		reqs[i] = FleetRequest{
			Objective: s.cfg.FleetObjective,
			X:         lp.x,
			Seed:      sched.StreamSeed(s.cfg.Seed, lp.streamIdx),
			Skip:      lp.stream.Increments(),
			Dt:        dt,
		}
	}
	res, err := s.cfg.Fleet.SampleFleet(ctx, reqs)
	if err != nil {
		return err
	}
	if len(res) != len(lps) {
		return fmt.Errorf("sim: fleet returned %d results for %d requests", len(res), len(lps))
	}
	// Determinism guard first, application second: the workers evaluated the
	// named objective at the same coordinates, and a mismatch means the
	// fleet is running different code, so its draws cannot be trusted to
	// reproduce in-process runs. Checking the whole batch before folding in
	// any draw keeps the error path side-effect free — no stream is left
	// half-advanced by a batch that is then reported as failed.
	for i, lp := range lps {
		if res[i].F != lp.stream.Underlying() {
			return fmt.Errorf("sim: fleet objective %q disagrees at %v: worker %v, local %v",
				s.cfg.FleetObjective, lp.x, res[i].F, lp.stream.Underlying())
		}
	}
	for i, lp := range lps {
		lp.stream.ApplyDraw(dt, res[i].Z)
		s.evals.Add(1)
	}
	s.advanceBatch(len(lps), dt)
	return nil
}
