package core

import (
	"fmt"
	"math/rand"
)

// The restart strategy of section 1.3.5.1: the downhill simplex is prone to
// premature termination in curved, gently sloped valleys (the simplex
// collapses geometrically before reaching the basin floor), "done either by
// restarting the simplex or by using it as a local search subroutine". After
// each convergence nmStrategy.Run rebuilds a fresh simplex around the best
// point found so far and runs one more leg; the helpers below carry the
// state between legs.

// checkRestartState validates a snapshot's restart-leg state against a run of
// restarts legs after the first in d dimensions.
func checkRestartState(rs *RestartState, restarts, d int) error {
	if rs.Leg < 0 || rs.Leg > restarts {
		return fmt.Errorf("core: snapshot restart leg %d out of range 0..%d", rs.Leg, restarts)
	}
	if len(rs.Scale) != d {
		return fmt.Errorf("core: snapshot restart scale has %d entries, want %d", len(rs.Scale), d)
	}
	if rs.Leg > 0 && (rs.Best == nil || rs.Total == nil) {
		return fmt.Errorf("core: snapshot of restart leg %d is missing the accumulated results", rs.Leg)
	}
	return nil
}

// mergeLeg folds a completed leg into the running totals and returns the new
// best result.
func mergeLeg(total, best, leg *Result) *Result {
	accumulate(total, leg)
	if leg.BestG < best.BestG {
		best = leg
		total.BestX = leg.BestX
		total.BestG = leg.BestG
		total.BestSigma = leg.BestSigma
		total.FinalSimplex = leg.FinalSimplex
		total.FinalValues = leg.FinalValues
		total.FinalSpread = leg.FinalSpread
		total.Termination = leg.Termination
		total.ContractionLevel = leg.ContractionLevel
	}
	return best
}

// restartCheckpoint wraps a Checkpoint callback so every snapshot of the
// current leg carries the restart-leg state. best/total are copied at leg
// start — exactly the accumulated state a resume must rebuild.
func restartCheckpoint(cb func(*Snapshot), leg int, scale []float64, best, total *Result) func(*Snapshot) {
	scaleCopy := append([]float64(nil), scale...)
	var bestCopy, totalCopy *Result
	if best != nil {
		b := *best
		bestCopy = &b
	}
	if total != nil {
		t := *total
		totalCopy = &t
	}
	return func(s *Snapshot) {
		s.Restart = &RestartState{Leg: leg, Scale: scaleCopy, Best: bestCopy, Total: totalCopy}
		cb(s)
	}
}

// UniformSimplex draws d+1 vertices with coordinates uniform over [lo, hi)
// from rng. It is the one initial-simplex draw shared by cmd/stochsimplex,
// job specs and the experiment drivers, so a seed reproduces the same
// starting simplex no matter which entry point drives the run.
func UniformSimplex(d int, lo, hi float64, rng *rand.Rand) [][]float64 {
	out := make([][]float64, d+1)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = lo + (hi-lo)*rng.Float64()
		}
	}
	return out
}

// simplexAround builds a right-angle simplex: the anchor point plus one
// vertex offset by scale[i] along each coordinate axis.
func simplexAround(x []float64, scale []float64) [][]float64 {
	d := len(x)
	out := make([][]float64, d+1)
	out[0] = append([]float64(nil), x...)
	for i := 0; i < d; i++ {
		v := append([]float64(nil), x...)
		v[i] += scale[i]
		out[i+1] = v
	}
	return out
}

// accumulate folds a leg's effort counters into the running total.
func accumulate(total, leg *Result) {
	total.Iterations += leg.Iterations
	total.Walltime += leg.Walltime
	total.Evaluations = leg.Evaluations // cumulative on the space already
	total.WaitRounds += leg.WaitRounds
	total.ResampleRounds += leg.ResampleRounds
	total.ForcedDecisions += leg.ForcedDecisions
	total.AdaptiveRounds += leg.AdaptiveRounds
	total.SpeculativeWaste += leg.SpeculativeWaste
	total.Moves.Reflections += leg.Moves.Reflections
	total.Moves.Expansions += leg.Moves.Expansions
	total.Moves.Contractions += leg.Moves.Contractions
	total.Moves.Collapses += leg.Moves.Collapses
}
