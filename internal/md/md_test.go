package md

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, -3, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := a.Cross(b); got != (Vec3{-3, 6, -3}) {
		t.Fatalf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 0}).Normalize(); got != (Vec3{}) {
		t.Fatalf("Normalize(0) = %v", got)
	}
	if got := (Vec3{0, 0, 9}).Normalize(); got != (Vec3{0, 0, 1}) {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestMinImageProperty(t *testing.T) {
	box := Box{L: 10}
	f := func(x, y, z float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return 1
			}
			return v
		}
		d := Vec3{clamp(x), clamp(y), clamp(z)}
		m := box.MinImage(d)
		// Each component in [-L/2, L/2), and differs from input by a
		// multiple of L.
		for _, pair := range [][2]float64{{d.X, m.X}, {d.Y, m.Y}, {d.Z, m.Z}} {
			if pair[1] < -5-1e-9 || pair[1] >= 5+1e-9 {
				return false
			}
			k := (pair[0] - pair[1]) / 10
			if math.Abs(k-math.Round(k)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapIntoPrimaryCell(t *testing.T) {
	box := Box{L: 5}
	p := box.Wrap(Vec3{-1, 6, 12.5})
	want := Vec3{4, 1, 2.5}
	if p.Sub(want).Norm() > 1e-12 {
		t.Fatalf("Wrap = %v, want %v", p, want)
	}
}

func TestTIP4PGeometry(t *testing.T) {
	m := TIP4P()
	if m.QM() != -1.04 {
		t.Fatalf("QM = %v", m.QM())
	}
	// HH distance: 2*0.9572*sin(52.26 deg) = 1.5139 A
	if hh := m.HHDist(); math.Abs(hh-1.5139) > 1e-3 {
		t.Fatalf("HHDist = %v", hh)
	}
	// gamma = 0.15 / (0.9572*cos(52.26 deg)) = 0.2560
	if g := m.MSiteGamma(); math.Abs(g-0.2560) > 1e-3 {
		t.Fatalf("MSiteGamma = %v", g)
	}
}

func buildSystem(t *testing.T, n int, seed int64) *System {
	t.Helper()
	s, err := NewSystem(Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{N: 10}); err == nil {
		t.Fatal("non-cube N accepted")
	}
	if _, err := NewSystem(Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := NewSystem(Config{N: 8, Cutoff: 100}); err == nil {
		t.Fatal("cutoff beyond half box accepted")
	}
}

func TestInitialGeometrySatisfiesConstraints(t *testing.T) {
	s := buildSystem(t, 27, 1)
	if v := s.MaxConstraintViolation(); v > 1e-9 {
		t.Fatalf("initial constraint violation %v", v)
	}
}

func TestInitialMomentumZero(t *testing.T) {
	s := buildSystem(t, 27, 2)
	if p := s.TotalMomentum().Norm(); p > 1e-10 {
		t.Fatalf("initial momentum %v", p)
	}
}

func TestDensityGivesExpectedBox(t *testing.T) {
	s := buildSystem(t, 64, 3)
	// V = 64*18.0154/(0.997*0.60221408) => L ~ 12.42 A
	if math.Abs(s.Box.L-12.42) > 0.05 {
		t.Fatalf("box edge %v, want ~12.42", s.Box.L)
	}
}

// TestDensityMatchesConfig: the box NewSystem sizes holds the configured
// mass density, rho = N*M / (V * 0.60221408) in g/cm^3 with V in A^3.
func TestDensityMatchesConfig(t *testing.T) {
	s := buildSystem(t, 64, 25)
	rho := float64(s.N) * WaterMolarMass / (s.Box.Volume() * 0.60221408)
	if math.Abs(rho-0.997) > 1e-6 {
		t.Fatalf("density = %v, want 0.997", rho)
	}
}

func TestMSitePosition(t *testing.T) {
	s := buildSystem(t, 8, 4)
	s.UpdateMSites()
	m := s.Model
	for mol := 0; mol < s.N; mol++ {
		b := mol * SitesPerMol
		d := s.MPos[mol].Sub(s.Pos[b+SiteO]).Norm()
		if math.Abs(d-m.ROM) > 1e-9 {
			t.Fatalf("mol %d: |OM| = %v, want %v", mol, d, m.ROM)
		}
		// M lies on the HOH bisector: collinear with O->midpoint.
		mid := s.Pos[b+SiteH1].Add(s.Pos[b+SiteH2]).Scale(0.5)
		om := s.MPos[mol].Sub(s.Pos[b+SiteO]).Normalize()
		omid := mid.Sub(s.Pos[b+SiteO]).Normalize()
		if om.Sub(omid).Norm() > 1e-9 {
			t.Fatalf("mol %d: M off the bisector", mol)
		}
	}
}

// Newton's third law: the total force over all material sites must vanish
// (shifted-force interactions are strictly pairwise).
func TestForcesSumToZero(t *testing.T) {
	s := buildSystem(t, 27, 5)
	s.ComputeForces()
	var sum Vec3
	for _, f := range s.Force {
		sum = sum.Add(f)
	}
	if sum.Norm() > 1e-8 {
		t.Fatalf("net force %v", sum)
	}
}

// The analytical forces must match the numerical gradient of the potential,
// including the M-site redistribution chain rule.
func TestForceMatchesNumericalGradient(t *testing.T) {
	s := buildSystem(t, 8, 6)
	s.ComputeForces()
	analytic := make([]Vec3, len(s.Force))
	copy(analytic, s.Force)

	const h = 1e-5
	perturb := func(i int, dim int, delta float64) float64 {
		switch dim {
		case 0:
			s.Pos[i].X += delta
		case 1:
			s.Pos[i].Y += delta
		case 2:
			s.Pos[i].Z += delta
		}
		s.ComputeForces()
		u := s.Potential
		switch dim {
		case 0:
			s.Pos[i].X -= delta
		case 1:
			s.Pos[i].Y -= delta
		case 2:
			s.Pos[i].Z -= delta
		}
		return u
	}
	// Spot-check a handful of site/dimension combinations.
	for _, i := range []int{0, 1, 2, 5, 10, 17} {
		for dim := 0; dim < 3; dim++ {
			up := perturb(i, dim, h)
			dn := perturb(i, dim, -h)
			numeric := -(up - dn) / (2 * h)
			var got float64
			switch dim {
			case 0:
				got = analytic[i].X
			case 1:
				got = analytic[i].Y
			case 2:
				got = analytic[i].Z
			}
			scale := math.Max(1, math.Abs(numeric))
			if math.Abs(got-numeric)/scale > 2e-4 {
				t.Fatalf("site %d dim %d: analytic %v vs numeric %v", i, dim, got, numeric)
			}
		}
	}
}

func TestLJRawKnownValues(t *testing.T) {
	// At r = sigma, U = 0; at r = 2^(1/6) sigma, F = 0 and U = -eps.
	const eps, sigma = 0.5, 3.0
	if _, u := ljRaw(sigma, eps, sigma); math.Abs(u) > 1e-12 {
		t.Fatalf("U(sigma) = %v", u)
	}
	rmin := math.Pow(2, 1.0/6.0) * sigma
	f, u := ljRaw(rmin, eps, sigma)
	if math.Abs(f) > 1e-12 {
		t.Fatalf("F(rmin) = %v", f)
	}
	if math.Abs(u+eps) > 1e-12 {
		t.Fatalf("U(rmin) = %v, want %v", u, -eps)
	}
}

func TestShakePreservesConstraintsUnderIntegration(t *testing.T) {
	s := buildSystem(t, 27, 7)
	s.ComputeForces()
	for step := 0; step < 20; step++ {
		if err := s.Step(1.0); err != nil {
			t.Fatal(err)
		}
		if v := s.MaxConstraintViolation(); v > 1e-7 {
			t.Fatalf("step %d: constraint violation %v", step, v)
		}
	}
}

func TestMomentumConservedUnderIntegration(t *testing.T) {
	s := buildSystem(t, 27, 8)
	s.ComputeForces()
	for step := 0; step < 20; step++ {
		if err := s.Step(1.0); err != nil {
			t.Fatal(err)
		}
	}
	if p := s.TotalMomentum().Norm(); p > 1e-6 {
		t.Fatalf("momentum drifted to %v", p)
	}
}

// NVE energy conservation: after a short Berendsen settling phase, the total
// energy over an NVE stretch must be stable to a small fraction of the
// kinetic energy.
func TestEnergyConservationNVE(t *testing.T) {
	s := buildSystem(t, 27, 9)
	s.ComputeForces()
	// Settle the lattice start so forces are moderate.
	for step := 0; step < 100; step++ {
		if err := s.Step(0.5); err != nil {
			t.Fatal(err)
		}
		s.BerendsenRescale(298, 50, 0.5)
	}
	s.ComputeForces()
	e0 := s.TotalEnergy()
	var maxDrift float64
	for step := 0; step < 200; step++ {
		if err := s.Step(0.5); err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(s.TotalEnergy() - e0); d > maxDrift {
			maxDrift = d
		}
	}
	ke := s.KineticEnergy()
	if maxDrift > 0.05*ke {
		t.Fatalf("NVE drift %v kcal/mol exceeds 5%% of KE %v", maxDrift, ke)
	}
}

func TestBerendsenDrivesTemperature(t *testing.T) {
	s := buildSystem(t, 27, 10)
	// Start hot.
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(2)
	}
	s.ComputeForces()
	start := s.Temperature()
	for step := 0; step < 600; step++ {
		if err := s.Step(0.5); err != nil {
			t.Fatal(err)
		}
		s.BerendsenRescale(298, 25, 0.5)
	}
	T := s.Temperature()
	if math.Abs(T-298) > 80 {
		t.Fatalf("temperature %v did not approach 298 (started at %v)", T, start)
	}
}

func TestCellListMatchesDirectPairs(t *testing.T) {
	// 216 molecules with a small cutoff gives >= 3 cells per side, so the
	// cell list engages; energies must match the direct double loop.
	s, err := NewSystem(Config{N: 216, Seed: 11, Cutoff: 6.0})
	if err != nil {
		t.Fatal(err)
	}
	cells := int(s.Box.L / s.Cutoff)
	if cells < 3 {
		t.Fatalf("test setup: expected cell list to engage (cells=%d)", cells)
	}

	type pair struct{ a, b int }
	direct := map[pair]bool{}
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			d := s.Box.MinImage(s.Pos[i*SitesPerMol].Sub(s.Pos[j*SitesPerMol]))
			if d.Norm() < s.Cutoff {
				direct[pair{i, j}] = true
			}
		}
	}
	visited := map[pair]int{}
	s.cellListPairs(cells, func(a, b int) {
		if a > b {
			a, b = b, a
		}
		visited[pair{a, b}]++
	})
	for p := range direct {
		if visited[p] == 0 {
			t.Fatalf("cell list missed in-range pair %v", p)
		}
	}
	for p, n := range visited {
		if n > 1 {
			t.Fatalf("cell list visited pair %v %d times", p, n)
		}
	}
}

func TestIdealGasPressure(t *testing.T) {
	// With interactions switched off (eps=0, q=0), the virial and tail
	// vanish and the molecular pressure is purely the translational ideal
	// term 2 K_trans / (3V) ~ rho_mol kB T.
	s := buildSystem(t, 64, 12)
	s.Model.EpsilonOO = 0
	s.Model.QH = 0
	s.ComputeForces()
	if s.Potential != 0 || s.Virial != 0 {
		t.Fatalf("non-interacting system has U=%v W=%v", s.Potential, s.Virial)
	}
	got := s.Pressure()
	want := 2 * s.TranslationalKE() / (3 * s.Box.Volume()) * PressureToAtm
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("pressure %v, want %v", got, want)
	}
	// rho kB T at 0.997 g/cm^3 and ~298 K is ~1360 atm.
	if want < 100 || want > 10000 {
		t.Fatalf("ideal kinetic pressure %v atm outside plausibility window", want)
	}
}

func TestTailCorrectionsSigns(t *testing.T) {
	// At liquid density with rc ~ 2 sigma, both corrections are negative
	// (the truncated region is attractive).
	s := buildSystem(t, 64, 12)
	uTail, pTail := s.TailCorrections()
	if uTail >= 0 || pTail >= 0 {
		t.Fatalf("tail corrections u=%v p=%v, want negative", uTail, pTail)
	}
	// Energy correction should be a modest fraction of the total cohesion.
	if uTail/float64(s.N) < -1.0 {
		t.Fatalf("uTail per molecule %v kcal/mol implausibly large", uTail/float64(s.N))
	}
}

func TestTranslationalKEBelowTotal(t *testing.T) {
	s := buildSystem(t, 27, 13)
	kt := s.TranslationalKE()
	k := s.KineticEnergy()
	if kt <= 0 || kt >= k {
		t.Fatalf("K_trans = %v vs K = %v", kt, k)
	}
	// Equipartition: translational DOF are 3N-3 of the 6N-3 total.
	ratio := kt / k
	want := float64(3*s.N-3) / float64(6*s.N-3)
	if math.Abs(ratio-want) > 0.25 {
		t.Fatalf("K_trans/K = %v, equipartition expects ~%v", ratio, want)
	}
}

func TestRDFIdealGasIsFlat(t *testing.T) {
	// Random uniform "molecules" (O sites only matter) must give g(r) ~ 1.
	s := buildSystem(t, 125, 13)
	rng := rand.New(rand.NewSource(99))
	rdf := NewRDF(s, 40)
	for frame := 0; frame < 40; frame++ {
		for m := 0; m < s.N; m++ {
			s.Pos[m*SitesPerMol+SiteO] = Vec3{
				rng.Float64() * s.Box.L,
				rng.Float64() * s.Box.L,
				rng.Float64() * s.Box.L,
			}
		}
		rdf.Accumulate(s, PairOO)
	}
	rs, g := rdf.Curve()
	// Skip the smallest bins (poor statistics).
	for k := range rs {
		if rs[k] < 2 {
			continue
		}
		if math.Abs(g[k]-1) > 0.25 {
			t.Fatalf("ideal-gas g(%0.2f) = %v, want ~1", rs[k], g[k])
		}
	}
}

func TestRDFRMSDeviationZeroAgainstSelf(t *testing.T) {
	s := buildSystem(t, 27, 14)
	rdf := NewRDF(s, 30)
	rdf.Accumulate(s, PairOO)
	_, g := rdf.Curve()
	if d := rdf.RMSDeviation(g, 0, s.Box.L/2); d != 0 {
		t.Fatalf("self deviation = %v", d)
	}
}

func TestMSDBallisticParticles(t *testing.T) {
	// Molecules translating rigidly at constant velocity v have
	// MSD(t) = |v|^2 t^2; check the recorder tracks that exactly.
	s := buildSystem(t, 8, 15)
	v := Vec3{0.01, 0, 0}
	msd := NewMSD(s)
	for step := 1; step <= 4; step++ {
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].Add(v)
		}
		msd.Record(s, float64(step))
	}
	for i, tt := range msd.times {
		want := v.Norm2() * tt * tt
		if math.Abs(msd.msds[i]-want) > 1e-12 {
			t.Fatalf("MSD(%v) = %v, want %v", tt, msd.msds[i], want)
		}
	}
}

func TestDiffusionOfLinearMSD(t *testing.T) {
	// A synthetic MSD growing exactly as 6 D t must return D.
	m := &MSD{}
	const d = 2.5e-7 // A^2/fs
	for i := 1; i <= 20; i++ {
		tt := float64(i) * 100
		m.times = append(m.times, tt)
		m.msds = append(m.msds, 6*d*tt)
	}
	got := m.Diffusion()
	want := d * A2PerFsToCm2PerS
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Diffusion = %v, want %v", got, want)
	}
}

func TestSitePairString(t *testing.T) {
	if PairOO.String() != "gOO" || PairOH.String() != "gOH" || PairHH.String() != "gHH" {
		t.Fatal("SitePair names wrong")
	}
}

// End-to-end smoke test of the full two-phase protocol on a small box.
func TestRunProtocolSmoke(t *testing.T) {
	s := buildSystem(t, 27, 16)
	props, err := s.Run(RunConfig{
		Dt:          1.0,
		EquilSteps:  150,
		ProdSteps:   150,
		SampleEvery: 10,
		RDFBins:     40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if props.Frames != 15 {
		t.Fatalf("frames = %d, want 15", props.Frames)
	}
	// Liquid water potential energy per molecule should be strongly
	// negative (tens of kJ/mol) even in a rough, short run.
	if props.EnergyKJPerMol > -5 || props.EnergyKJPerMol < -120 {
		t.Fatalf("U = %v kJ/mol implausible", props.EnergyKJPerMol)
	}
	if props.TemperatureK < 150 || props.TemperatureK > 500 {
		t.Fatalf("T = %v K implausible", props.TemperatureK)
	}
	if props.DiffusionCm2PerS < 0 {
		t.Fatalf("negative diffusion %v", props.DiffusionCm2PerS)
	}
	_, gOO := props.GOO.Curve()
	peak := 0.0
	for _, g := range gOO {
		if g > peak {
			peak = g
		}
	}
	if peak < 1.2 {
		t.Fatalf("gOO peak %v shows no liquid structure", peak)
	}
}
