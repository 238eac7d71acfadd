// Package vtime provides the virtual clock used by every experiment in this
// repository.
//
// The paper's noise model (eq 1.2) makes the variance of a sampled objective
// value depend only on the accumulated sampling time t of a vertex, with
// simplex updates occurring "on timescales of ~10^4 seconds in the late stages
// of the optimization". Reproducing that on a laptop requires decoupling the
// noise law from real seconds: a Clock counts virtual seconds of sampling and
// bookkeeping, so a run that the paper describes in CPU-hours executes in
// microseconds while obeying the exact same sigma^2 = sigma0^2/t law.
//
// The clock also models the parallel-sampling semantics of the MW framework:
// when d+3 vertices sample concurrently for dt seconds, wall time advances by
// dt once, not (d+3)*dt. Sequential backends may instead advance the clock
// per-point to model a serial machine; the choice belongs to the sim backend.
package vtime

import "fmt"

// Clock accumulates virtual seconds. The zero value is a clock at t=0.
//
// Clock is not safe for concurrent use; parallel backends must serialize
// advances (they represent a single global wall clock).
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds since the clock started.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by dt seconds. It panics if dt is negative,
// since virtual time, like wall time, never runs backwards.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("vtime: Advance(%v): negative duration", dt))
	}
	c.now += dt
}

// Reset rewinds the clock to zero. Experiments reuse clocks across repeated
// optimization runs with different seeds.
func (c *Clock) Reset() { c.now = 0 }
