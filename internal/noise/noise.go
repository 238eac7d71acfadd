// Package noise implements the stochastic observation model of the paper
// (eqs 1.1-1.2): the observed objective value at a vertex k is
//
//	g(theta_k) = f(theta_k) + eps_k(t_k)
//
// where eps_k is Gaussian with mean zero and variance sigma_k^2(t_k) =
// (sigma0_k)^2 / t_k, and t_k is the accumulated sampling time at that
// vertex. Continued sampling shrinks the noise as 1/sqrt(t), exactly as a
// molecular-dynamics average over a longer trajectory would.
//
// An Accumulator models this consistently across incremental sampling: the
// noise contribution is a Brownian integral W(t) with Var W(t) = sigma0^2*t,
// and the running estimate is f + W(t)/t, so that (a) the estimate after
// total time t has variance sigma0^2/t regardless of how the sampling was
// split into increments, and (b) successive estimates are correlated the way
// a lengthening running average is, rather than being independent redraws.
package noise

import (
	"fmt"
	"math"
)

// Accumulator tracks the sampling state of one point in parameter space.
// It owns the underlying deterministic value f (unknown to the optimizer)
// and the accumulated Brownian noise.
type Accumulator struct {
	f      float64 // underlying noise-free value
	sigma0 float64 // inherent noise strength (sigma0_k in eq 1.2)

	t float64 // accumulated sampling time
	w float64 // accumulated Brownian noise integral, Var = sigma0^2 * t
	n int     // number of increments
}

// NewAccumulator returns an accumulator for a point whose noise-free value is
// f and whose inherent noise strength is sigma0 (may be zero for a noiseless
// objective).
func NewAccumulator(f, sigma0 float64) *Accumulator {
	if sigma0 < 0 {
		panic("noise: negative sigma0")
	}
	return &Accumulator{f: f, sigma0: sigma0}
}

// Sample accrues dt additional seconds of sampling, drawing the noise
// increment from src with Source.NormFloat64, the draw a Stream makes. dt
// must be positive.
//
//optlint:noalloc
func (a *Accumulator) Sample(dt float64, src *Source) {
	a.ApplyDraw(dt, src.NormFloat64())
}

// ApplyDraw accrues dt additional seconds of sampling using an externally
// supplied standard-normal draw z instead of drawing one itself. It is the
// shared accumulation step behind Sample and the remote-fleet path, where the
// draw is computed by a worker process from the point's stream seed: applying
// the same z sequence yields the same state bit for bit, wherever the draws
// were produced. dt must be positive.
//
//optlint:noalloc
func (a *Accumulator) ApplyDraw(dt, z float64) {
	if dt <= 0 {
		panic("noise: Sample requires dt > 0")
	}
	a.w += a.sigma0 * math.Sqrt(dt) * z
	a.t += dt
	a.n++
}

// Mean returns the current running estimate of the objective value,
// f + W(t)/t. Before any sampling it returns the underlying value (a point
// that was never sampled carries no information; callers are expected to
// Sample before trusting Mean, and Sigma reports +Inf in that state).
func (a *Accumulator) Mean() float64 {
	if a.t == 0 {
		return a.f
	}
	return a.f + a.w/a.t
}

// Sigma returns the true standard deviation of the current estimate,
// sigma0/sqrt(t) (eq 1.2). It is +Inf before any sampling.
func (a *Accumulator) Sigma() float64 {
	if a.t == 0 {
		return math.Inf(1)
	}
	return a.sigma0 / math.Sqrt(a.t)
}

// Time returns the accumulated sampling time t_k.
func (a *Accumulator) Time() float64 { return a.t }

// State is the serializable sampling state of an Accumulator. Together with
// the point's identity (coordinates and stream seed) it is everything needed
// to reconstruct the point bitwise in a fresh process: the numeric fields are
// restored verbatim, and the RNG is fast-forwarded by N draws (each Sample
// consumes exactly one normal variate), so the next increment after a restore
// observes exactly the noise it would have observed uninterrupted.
type State struct {
	// T is the accumulated sampling time.
	T float64 `json:"t"`
	// W is the accumulated Brownian noise integral.
	W float64 `json:"w"`
	// N is the number of sampling increments (== normal draws consumed).
	N int `json:"n"`
	// ZCount is never written. A state taken under the retired
	// estimated-sigma mode carries the count of increments folded into its
	// sigma estimate here, so a reader can refuse it instead of resuming it
	// under the true sigma; the z_mean and z_m2 beside it are ignored.
	ZCount int `json:"z_count,omitempty"`
}

// State exports the accumulator's sampling state. It performs no RNG draws,
// so taking a snapshot never perturbs the run being snapshotted.
func (a *Accumulator) State() State { return State{T: a.t, W: a.w, N: a.n} }

// restore overwrites the accumulator's sampling state. The identity fields
// (f, sigma0) are not part of State; they are reconstructed by the caller
// from the point's coordinates.
func (a *Accumulator) restore(st State) { a.t, a.w, a.n = st.T, st.W, st.N }

// Underlying returns the noise-free value f. It exists for harness-side
// accounting (computing the R performance measure of section 3.2); the
// optimization algorithms never call it.
func (a *Accumulator) Underlying() float64 { return a.f }

// Increments returns the number of sampling increments taken so far.
func (a *Accumulator) Increments() int { return a.n }

// Stream is an Accumulator coupled to its own deterministic RNG. It is the
// unit of concurrency for batch sampling: because every point draws noise
// from a private stream, the values it observes depend only on its seed and
// its own sampling history, never on how many other points were sampled
// concurrently or in what order.
//
// A stream has one owner at a time and takes no lock: it is sampled by one
// goroutine at a time, which the batch paths guarantee by refusing a batch
// that lists a point twice. A Stream holds its generator by value, and the
// generator's state vector by pointer, so a copy would share that vector:
// embed a Stream in the object that owns it and call Init there. Seeding is
// O(1) (see Source), so Init does it eagerly.
//
// The invariant is that a local draw for increment k is always variate k of
// NewSource(seed).NormFloat64, which is variate k of rand.New(NewSource(seed))
// too. Increments that arrive with their draw attached (the promoted
// Accumulator.ApplyDraw, whose draw a remote fleet worker computed by
// replaying this stream's seed with the same method, and Restore) do not
// touch the generator: they only widen the gap between the increment count
// and the generator's position, and Sample closes the gap by discarding
// variates before it draws. Local and remote sampling can therefore interleave on one
// point, and a restored stream stays exact; a fleet master, whose every draw
// is computed by a worker, never runs the generator at all.
type Stream struct {
	Accumulator
	pos int    // normal variates src has produced, <= Increments()
	src Source // seeded by Init: O(1), and nothing is drawn until Sample
}

// NewStream builds the sampling stream for a point with noise-free value f,
// inherent noise strength sigma0, and the given RNG seed (typically derived
// with sched.StreamSeed from the space seed and the point's creation index).
func NewStream(f, sigma0 float64, seed int64) *Stream {
	s := new(Stream)
	s.Init(f, sigma0, seed)
	return s
}

// Init makes s the stream NewStream(f, sigma0, seed) returns, in place, so an
// owner can embed the stream instead of pointing at a separate allocation.
func (s *Stream) Init(f, sigma0 float64, seed int64) {
	if sigma0 < 0 {
		panic("noise: negative sigma0")
	}
	*s = Stream{Accumulator: Accumulator{f: f, sigma0: sigma0}}
	s.src.Seed(seed)
}

// Sample accrues dt additional seconds of sampling, drawing the noise
// increment from the stream's private RNG.
//
//optlint:noalloc
func (s *Stream) Sample(dt float64) {
	if s.pos != s.n {
		s.catchUp()
	}
	s.ApplyDraw(dt, s.src.NormFloat64())
	s.pos++
}

// catchUp brings the generator to the increment count, discarding one
// variate per increment that was applied without one. (The ziggurat consumes
// a data-dependent number of source words per variate, so the position can
// only be reached by drawing.)
func (s *Stream) catchUp() {
	for ; s.pos < s.n; s.pos++ {
		s.src.NormFloat64()
	}
}

// Restore rebuilds the stream's sampling state from a snapshot taken by
// State. The stream must be freshly built by NewStream (or Init) with the
// same seed the original had: Restore overwrites the accumulator state, and
// the next Sample replays st.N normal draws to put the RNG at the exact
// position the original stream was at, so the resumed stream is bitwise
// indistinguishable from one that was never interrupted. A stream that
// already holds increments cannot be rewound to a snapshot — its generator
// may be past st.N — so Restore panics on one instead of resuming a
// divergent sequence.
func (s *Stream) Restore(st State) {
	if s.n != 0 {
		panic(fmt.Sprintf("noise: Restore on a stream that already holds %d increments (%d drawn locally); restore only into a fresh NewStream", s.n, s.pos))
	}
	s.Accumulator.restore(st)
}
