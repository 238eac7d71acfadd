package water

import (
	"repro/internal/mw"
	"repro/internal/noise"
)

// Thermodynamic anchors. thetaStar is where the surrogate cost is near its
// minimum (the "slightly better than TIP4P" optimum the paper converges to);
// at published TIP4P parameters the surfaces reproduce the TIP4P column of
// the paper's property table: U = -41.8 kJ/mol, P = 373 atm, D = 3.29e-5
// cm^2/s.
var (
	thetaStar = Params{Epsilon: 0.1500, Sigma: 3.158, QH: 0.5225}

	// Property values at thetaStar and at TIP4P.
	uOpt, uTIP4P = -41.70, -41.80
	pOpt, pTIP4P = 250.0, 373.0
	dOpt, dTIP4P = 3.00e-5, 3.29e-5
)

// paramScales normalizes parameter deviations: a "unit" move is 0.02
// kcal/mol in epsilon, 0.05 A in sigma, 0.01 e in qH (the sensitivity ratios
// implied by the spread of the paper's final parameter tables).
var paramScales = Params{Epsilon: 0.02, Sigma: 0.05, QH: 0.01}

// quadraticBowl returns ||(theta-center)/scales||^2 normalized so that the
// published TIP4P point evaluates to 1.
func quadraticBowl(theta, center Params) float64 {
	norm := func(p Params) float64 {
		de := (p.Epsilon - center.Epsilon) / paramScales.Epsilon
		ds := (p.Sigma - center.Sigma) / paramScales.Sigma
		dq := (p.QH - center.QH) / paramScales.QH
		return de*de + ds*ds + dq*dq
	}
	ref := norm(TIP4PParams())
	if ref == 0 {
		return 0
	}
	return norm(theta) / ref
}

// NoiseFreeProperties evaluates the surrogate property surfaces (no sampling
// noise): the three thermodynamic surfaces are anchored quadratics, the three
// RDF residuals come from the parametric curve model of rdfmodel.go.
func NoiseFreeProperties(theta Params) [NumProperties]float64 {
	var p [NumProperties]float64
	p[PropU] = uOpt + (uTIP4P-uOpt)*quadraticBowl(theta, Params{
		Epsilon: thetaStar.Epsilon, Sigma: thetaStar.Sigma, QH: thetaStar.QH + 0.001})
	p[PropP] = pOpt + (pTIP4P-pOpt)*quadraticBowl(theta, Params{
		Epsilon: thetaStar.Epsilon + 0.002, Sigma: thetaStar.Sigma, QH: thetaStar.QH})
	p[PropD] = dOpt + (dTIP4P-dOpt)*quadraticBowl(theta, Params{
		Epsilon: thetaStar.Epsilon, Sigma: thetaStar.Sigma - 0.002, QH: thetaStar.QH})
	p[PropGOO] = RDFResidual(PropGOO, theta)
	p[PropGOH] = RDFResidual(PropGOH, theta)
	p[PropGHH] = RDFResidual(PropGHH, theta)
	return p
}

// PropertySigma0 returns the inherent sampling-noise strength sigma0 of each
// property estimate (eq 1.2), scaled by the global noise factor. The ratios
// mirror the error bars of the paper's property table: pressure is by far
// the noisiest observable, the RDF residuals the quietest.
func PropertySigma0(noiseFactor float64) [NumProperties]float64 {
	return [NumProperties]float64{
		PropD:   0.4e-5 * noiseFactor,
		PropGHH: 0.010 * noiseFactor,
		PropGOH: 0.010 * noiseFactor,
		PropGOO: 0.012 * noiseFactor,
		PropP:   90 * noiseFactor,
		PropU:   0.25 * noiseFactor,
	}
}

// Surrogate is the fast property engine: noisy property estimates plus the
// eq 3.4 cost, usable directly or as an mw.SystemEvaluator.
type Surrogate struct {
	// NoiseFactor scales every property's sigma0; zero means noiseless.
	NoiseFactor float64
	// Rng drives the sampling noise.
	Rng *noise.Source

	theta Params
	accs  [NumProperties]*noise.Accumulator
}

var _ mw.SystemEvaluator = (*Surrogate)(nil)

// NewSurrogate builds a surrogate evaluator with its own noise stream.
func NewSurrogate(noiseFactor float64, seed int64) *Surrogate {
	return &Surrogate{NoiseFactor: noiseFactor, Rng: noise.NewSource(seed)}
}

// Start implements mw.SystemEvaluator.
func (s *Surrogate) Start(x []float64) {
	s.theta = FromVec(x)
	props := NoiseFreeProperties(s.theta)
	sigmas := PropertySigma0(s.NoiseFactor)
	for i := Property(0); i < NumProperties; i++ {
		s.accs[i] = noise.NewAccumulator(props[i], sigmas[i])
	}
}

// Sample implements mw.SystemEvaluator: every property's simulation advances
// by dt concurrently (they are separate sampling calculations under one
// vertex, exactly the Ns-systems structure of the paper).
func (s *Surrogate) Sample(dt float64) {
	for i := Property(0); i < NumProperties; i++ {
		s.accs[i].Sample(dt, s.Rng)
	}
}

// PropertyEstimates returns the current noisy property means and their
// standard deviations.
func (s *Surrogate) PropertyEstimates() (means, sigmas [NumProperties]float64) {
	for i := Property(0); i < NumProperties; i++ {
		means[i] = s.accs[i].Mean()
		sigmas[i] = s.accs[i].Sigma()
	}
	return means, sigmas
}

// Report implements mw.SystemEvaluator: the observable is the eq 3.4 cost
// computed from the current noisy property estimates, with its variance
// propagated through the cost gradient.
func (s *Surrogate) Report() (mean, variance, t float64) {
	means, sigmas := s.PropertyEstimates()
	mean = Cost(means)
	for i := Property(0); i < NumProperties; i++ {
		g := costGradient(means, i)
		variance += g * g * sigmas[i] * sigmas[i]
	}
	return mean, variance, s.accs[PropU].Time()
}

// Stop implements mw.SystemEvaluator.
func (s *Surrogate) Stop() {
	for i := range s.accs {
		s.accs[i] = nil
	}
}

// NoiseFreeCost evaluates the exact surrogate cost surface, used by
// harnesses for the R performance measure and by the noiseless sanity tests.
func NoiseFreeCost(x []float64) float64 {
	props := NoiseFreeProperties(FromVec(x))
	return Cost(props)
}
