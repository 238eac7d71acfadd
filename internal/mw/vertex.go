package mw

import "repro/internal/noise"

// SystemEvaluator is one simulation system running on a client process (the
// bottom level of Figure 3.2). Each of the Ns clients under a vertex server
// owns one SystemEvaluator; for molecular applications a system is a
// configuration plus simulation protocol, for the test functions it is a
// direct noisy evaluation.
type SystemEvaluator interface {
	// Start begins an evaluation at parameter point x, discarding any state
	// from the previous point.
	Start(x []float64)
	// Sample accrues dt more virtual seconds of sampling.
	Sample(dt float64)
	// Report returns the current running estimate: mean, its variance, and
	// the accumulated sampling time.
	Report() (mean, variance, t float64)
	// Stop ends the current evaluation (the master "has the ability to
	// direct a cessation of work at one point in parameter space").
	Stop()
}

// FuncSystem adapts a deterministic function plus the eq 1.2 noise model to
// the SystemEvaluator interface; it is the client-side evaluator for the
// Rosenbrock/Powell studies.
type FuncSystem struct {
	// F is the underlying deterministic objective.
	F func(x []float64) float64
	// Sigma0 maps a point to its inherent noise strength; nil = noiseless.
	Sigma0 func(x []float64) float64
	// Rng is the client's private noise stream.
	Rng *noise.Source

	acc *noise.Accumulator
}

// Start implements SystemEvaluator.
func (s *FuncSystem) Start(x []float64) {
	sigma0 := 0.0
	if s.Sigma0 != nil {
		sigma0 = s.Sigma0(x)
	}
	s.acc = noise.NewAccumulator(s.F(x), sigma0)
}

// Sample implements SystemEvaluator.
func (s *FuncSystem) Sample(dt float64) {
	if s.acc == nil {
		panic("mw: FuncSystem.Sample before Start")
	}
	s.acc.Sample(dt, s.Rng)
}

// Report implements SystemEvaluator.
func (s *FuncSystem) Report() (float64, float64, float64) {
	if s.acc == nil {
		panic("mw: FuncSystem.Report before Start")
	}
	sg := s.acc.Sigma()
	return s.acc.Mean(), sg * sg, s.acc.Time()
}

// Stop implements SystemEvaluator.
func (s *FuncSystem) Stop() { s.acc = nil }
