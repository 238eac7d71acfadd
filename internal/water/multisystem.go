package water

import (
	"fmt"
	"math/rand"

	"repro/internal/mw"
	"repro/internal/noise"
)

// The multi-system split of the application study: the paper's vertex
// servers coordinate Ns distinct simulations per parameter set ("separate
// simulations may be needed to evaluate the room-temperature energy, the
// isothermal compressibility, and the high-temperature properties"). Here
// the six cost-function properties are partitioned across three simulation
// systems:
//
//	system 0 — thermodynamics (U, P)
//	system 1 — structure (gOO, gOH, gHH)
//	system 2 — dynamics (D)
//
// Each client evaluates only its own properties and reports its partial
// eq-3.4 cost multiplied by NumSystems; the vertex server's mean-of-means
// aggregation then reconstructs the full cost exactly:
//
//	(1/Ns) * sum_c (Ns * partial_c) = sum_c partial_c = cost.
//
// Variances aggregate consistently: Var(mean) = (1/Ns^2) sum Var(Ns *
// partial_c) = sum Var(partial_c).

// NumSystems is the number of simulation systems per vertex in the
// multi-system deployment.
const NumSystems = 3

// systemProperties maps each system index to its property subset.
var systemProperties = [NumSystems][]Property{
	{PropU, PropP},
	{PropGOO, PropGOH, PropGHH},
	{PropD},
}

// PartialSurrogate evaluates one system's property subset with the same
// surrogate surfaces and noise law as the full Surrogate. It implements
// mw.SystemEvaluator; run NumSystems of them under one vertex server.
type PartialSurrogate struct {
	// System selects the property subset (0..NumSystems-1).
	System int
	// NoiseFactor scales the property sigma0s.
	NoiseFactor float64
	// Rng drives the sampling noise.
	Rng *rand.Rand

	accs []*noise.Accumulator // accs[i] samples systemProperties[System][i]
}

var _ mw.SystemEvaluator = (*PartialSurrogate)(nil)

// NewPartialSurrogate builds the evaluator for one system of the split.
func NewPartialSurrogate(system int, noiseFactor float64, seed int64) *PartialSurrogate {
	if system < 0 || system >= NumSystems {
		panic(fmt.Sprintf("water: system %d out of range [0,%d)", system, NumSystems))
	}
	return &PartialSurrogate{
		System:      system,
		NoiseFactor: noiseFactor,
		Rng:         rand.New(rand.NewSource(seed)),
	}
}

// Start implements mw.SystemEvaluator.
func (p *PartialSurrogate) Start(x []float64) {
	theta := FromVec(x)
	props := NoiseFreeProperties(theta)
	sigmas := PropertySigma0(p.NoiseFactor)
	p.accs = p.accs[:0]
	for _, prop := range systemProperties[p.System] {
		p.accs = append(p.accs, noise.NewAccumulator(props[prop], sigmas[prop]))
	}
}

// Sample implements mw.SystemEvaluator. The properties draw from the one
// stream in their fixed order, so the estimate is a pure function of the
// seed.
func (p *PartialSurrogate) Sample(dt float64) {
	for _, acc := range p.accs {
		acc.Sample(dt, p.Rng)
	}
}

// Report implements mw.SystemEvaluator: the observable is NumSystems times
// this system's partial cost, so the server's average reconstructs the full
// eq-3.4 cost.
func (p *PartialSurrogate) Report() (mean, variance, t float64) {
	for i, prop := range systemProperties[p.System] {
		acc := p.accs[i]
		r := (acc.Mean() - Targets[prop]) / Scales[prop]
		w2 := Weights[prop] * Weights[prop]
		mean += w2 * r * r
		// Propagate: d(partial)/dp = 2 w^2 (p - p0)/s^2.
		g := 2 * w2 * (acc.Mean() - Targets[prop]) / (Scales[prop] * Scales[prop])
		variance += g * g * acc.Sigma() * acc.Sigma()
		t = acc.Time()
	}
	return NumSystems * mean, NumSystems * NumSystems * variance, t
}

// Stop implements mw.SystemEvaluator.
func (p *PartialSurrogate) Stop() { p.accs = nil }

// PartialCostNoiseFree returns one system's exact partial cost contribution;
// the three partials sum to NoiseFreeCost.
func PartialCostNoiseFree(system int, theta Params) float64 {
	props := NoiseFreeProperties(theta)
	sum := 0.0
	for _, prop := range systemProperties[system] {
		r := (props[prop] - Targets[prop]) / Scales[prop]
		sum += Weights[prop] * Weights[prop] * r * r
	}
	return sum
}
