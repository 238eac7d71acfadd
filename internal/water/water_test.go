package water

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsVecRoundTrip(t *testing.T) {
	p := Params{Epsilon: 0.15, Sigma: 3.16, QH: 0.52}
	if got := FromVec(p.Vec()); got != p {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestFromVecPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromVec([]float64{1, 2})
}

func TestPropertyNames(t *testing.T) {
	want := []string{"D", "gHH", "gOH", "gOO", "P", "E"}
	for i := Property(0); i < NumProperties; i++ {
		if i.String() != want[i] {
			t.Errorf("property %d name %q, want %q", i, i.String(), want[i])
		}
	}
	if PropD.Units() != "cm^2/s" || PropP.Units() != "atm" || PropGOO.Units() != "" {
		t.Error("units wrong")
	}
}

func TestSurfacesReproduceTIP4PAnchors(t *testing.T) {
	props := NoiseFreeProperties(TIP4PParams())
	if math.Abs(props[PropU]-(-41.8)) > 0.05 {
		t.Errorf("U at TIP4P = %v, want ~-41.8", props[PropU])
	}
	if math.Abs(props[PropP]-373) > 10 {
		t.Errorf("P at TIP4P = %v, want ~373", props[PropP])
	}
	if math.Abs(props[PropD]-3.29e-5)/3.29e-5 > 0.05 {
		t.Errorf("D at TIP4P = %v, want ~3.29e-5", props[PropD])
	}
	// TIP4P residuals small but nonzero (the over-structuring).
	for _, p := range []Property{PropGOO, PropGOH, PropGHH} {
		if props[p] <= 0 || props[p] > 0.3 {
			t.Errorf("%v residual at TIP4P = %v, want small positive", p, props[p])
		}
	}
}

func TestRDFResidualVanishesAtAnchor(t *testing.T) {
	for _, p := range []Property{PropGOO, PropGOH, PropGHH} {
		if r := RDFResidual(p, rdfAnchor); r > 1e-12 {
			t.Errorf("%v residual at anchor = %v, want 0", p, r)
		}
	}
}

func TestCostBetterNearThetaStarThanTIP4P(t *testing.T) {
	cStar := NoiseFreeCost(thetaStar.Vec())
	cTIP4P := NoiseFreeCost(TIP4PParams().Vec())
	if cStar >= cTIP4P {
		t.Fatalf("cost(thetaStar)=%v not below cost(TIP4P)=%v", cStar, cTIP4P)
	}
}

func TestCostGrowsAwayFromOptimum(t *testing.T) {
	base := NoiseFreeCost(thetaStar.Vec())
	far := Params{Epsilon: 0.30, Sigma: 2.8, QH: 0.65}
	if NoiseFreeCost(far.Vec()) < 10*base+1 {
		t.Fatalf("cost at far params %v not much larger than %v", NoiseFreeCost(far.Vec()), base)
	}
}

// Property: the cost is non-negative everywhere and exactly eq 3.4.
func TestCostNonNegativeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		clamp := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) {
				return (lo + hi) / 2
			}
			return lo + math.Mod(math.Abs(v), hi-lo)
		}
		theta := Params{
			Epsilon: clamp(a, 0.05, 0.4),
			Sigma:   clamp(b, 2.5, 4.0),
			QH:      clamp(c, 0.3, 0.8),
		}
		return NoiseFreeCost(theta.Vec()) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCostHandComputed(t *testing.T) {
	// A property vector exactly on target gives zero cost.
	var onTarget [NumProperties]float64
	for i := Property(0); i < NumProperties; i++ {
		onTarget[i] = Targets[i]
	}
	if c := Cost(onTarget); c != 0 {
		t.Fatalf("cost on target = %v", c)
	}
	// One property off target by one scale unit contributes w^2.
	off := onTarget
	off[PropU] = Targets[PropU] + Scales[PropU]
	want := Weights[PropU] * Weights[PropU]
	if c := Cost(off); math.Abs(c-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", c, want)
	}
}

func TestSurrogateEvaluatorLifecycle(t *testing.T) {
	s := NewSurrogate(1.0, 42)
	s.Start(TIP4PParams().Vec())
	s.Sample(1)
	m1, v1, t1 := s.Report()
	if t1 != 1 {
		t.Fatalf("time = %v", t1)
	}
	if v1 <= 0 {
		t.Fatalf("variance = %v, want positive with noise", v1)
	}
	for i := 0; i < 200; i++ {
		s.Sample(1)
	}
	m2, v2, t2 := s.Report()
	if t2 != 201 {
		t.Fatalf("time = %v", t2)
	}
	if v2 >= v1 {
		t.Fatalf("variance did not shrink: %v -> %v", v1, v2)
	}
	// The converged estimate must approach the noise-free cost.
	exact := NoiseFreeCost(TIP4PParams().Vec())
	if math.Abs(m2-exact) > math.Abs(m1-exact)+0.5 {
		t.Fatalf("estimate diverged: %v -> %v (exact %v)", m1, m2, exact)
	}
	s.Stop()
}

func TestSurrogateNoiselessMatchesExact(t *testing.T) {
	s := NewSurrogate(0, 7)
	x := []float64{0.152, 3.16, 0.521}
	s.Start(x)
	s.Sample(1)
	m, v, _ := s.Report()
	if v != 0 {
		t.Fatalf("noiseless variance = %v", v)
	}
	if want := NoiseFreeCost(x); math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", m, want)
	}
}

func TestPropertyEstimates(t *testing.T) {
	s := NewSurrogate(1.0, 3)
	s.Start(TIP4PParams().Vec())
	s.Sample(100)
	means, sigmas := s.PropertyEstimates()
	exact := NoiseFreeProperties(TIP4PParams())
	sig0 := PropertySigma0(1.0)
	for i := Property(0); i < NumProperties; i++ {
		if math.Abs(sigmas[i]-sig0[i]/10) > 1e-9 {
			t.Errorf("%v sigma = %v, want %v", i, sigmas[i], sig0[i]/10)
		}
		if math.Abs(means[i]-exact[i]) > 6*sigmas[i] {
			t.Errorf("%v estimate %v too far from %v", i, means[i], exact[i])
		}
	}
}

func TestModelRDFRespondsToParameters(t *testing.T) {
	// Larger sigma must shift the gOO first peak outward.
	peakPos := func(theta Params) float64 {
		best, bestG := 0.0, 0.0
		for r := 2.0; r < 3.6; r += 0.01 {
			if g := ModelRDF(PropGOO, theta, r); g > bestG {
				best, bestG = r, g
			}
		}
		return best
	}
	small := rdfAnchor
	small.Sigma -= 0.1
	large := rdfAnchor
	large.Sigma += 0.1
	if peakPos(large) <= peakPos(small) {
		t.Fatal("gOO peak did not shift outward with sigma")
	}
	// Stronger charge must increase structuring (higher first peak).
	weak := rdfAnchor
	weak.QH -= 0.03
	strong := rdfAnchor
	strong.QH += 0.03
	peakHeight := func(theta Params) float64 {
		best := 0.0
		for r := 2.0; r < 3.6; r += 0.01 {
			if g := ModelRDF(PropGOO, theta, r); g > best {
				best = g
			}
		}
		return best
	}
	if peakHeight(strong) <= peakHeight(weak) {
		t.Fatal("gOO structuring did not grow with charge")
	}
}

func TestRDFCurveSampling(t *testing.T) {
	rs, gs := RDFCurve(PropGOO, nil, 2, 8, 61)
	if len(rs) != 61 || len(gs) != 61 {
		t.Fatal("wrong sample count")
	}
	if rs[0] != 2 || rs[60] != 8 {
		t.Fatalf("range = [%v, %v]", rs[0], rs[60])
	}
	// Experimental gOO: pronounced first peak above 2, decays toward ~1.
	maxG := 0.0
	for _, g := range gs {
		if g > maxG {
			maxG = g
		}
	}
	if maxG < 2.0 || maxG > 3.5 {
		t.Fatalf("experimental gOO peak = %v", maxG)
	}
	if math.Abs(gs[60]-1) > 0.3 {
		t.Fatalf("gOO(8 A) = %v, want ~1", gs[60])
	}
}

func TestExperimentalRDFPanicsOnThermoProperty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ExperimentalRDF(PropU, 3.0)
}

// Full pipeline: the real MD engine must produce properties in the right
// regime for TIP4P water (strongly negative U, liquid-like diffusion,
// positive RDF residuals). Short run, so tolerances are loose.
func TestRealPropertiesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("MD evaluation is slow")
	}
	props, err := RealProperties(TIP4PParams(), MDConfig{
		N: 27, EquilSteps: 200, ProdSteps: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if props[PropU] > -15 || props[PropU] < -90 {
		t.Errorf("MD U = %v kJ/mol implausible", props[PropU])
	}
	if props[PropD] < 0 || props[PropD] > 1e-3 {
		t.Errorf("MD D = %v implausible", props[PropD])
	}
	for _, p := range []Property{PropGOO, PropGOH, PropGHH} {
		if props[p] < 0 || props[p] > 2 {
			t.Errorf("MD %v residual = %v implausible", p, props[p])
		}
	}
	if c := Cost(props); c <= 0 || math.IsNaN(c) {
		t.Errorf("MD cost = %v", c)
	}
}

// Determinism: identical seeds give identical surrogate sampling paths.
func TestSurrogateDeterminism(t *testing.T) {
	run := func() float64 {
		s := NewSurrogate(1.0, 11)
		s.Start([]float64{0.15, 3.15, 0.52})
		for i := 0; i < 10; i++ {
			s.Sample(0.5)
		}
		m, _, _ := s.Report()
		return m
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// The rng fields must be independent across evaluators.
func TestSurrogateIndependentStreams(t *testing.T) {
	a := NewSurrogate(1.0, 1)
	b := NewSurrogate(1.0, 2)
	a.Start(TIP4PParams().Vec())
	b.Start(TIP4PParams().Vec())
	a.Sample(1)
	b.Sample(1)
	ma, _, _ := a.Report()
	mb, _, _ := b.Report()
	if ma == mb {
		t.Fatal("different seeds produced identical noise")
	}
}
