package md

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/noise"
)

// WaterModel holds the TIP4P-family force-field parameters the optimizer
// varies (Figure 3.19 of the paper): the oxygen Lennard-Jones well depth and
// diameter, and the hydrogen partial charge (the M-site charge is -2*qH).
type WaterModel struct {
	// EpsilonOO is the O-O Lennard-Jones epsilon in kcal/mol.
	EpsilonOO float64
	// SigmaOO is the O-O Lennard-Jones sigma in angstrom.
	SigmaOO float64
	// QH is the hydrogen partial charge in e.
	QH float64

	// ROH is the rigid O-H bond length (angstrom).
	ROH float64
	// ThetaHOH is the rigid H-O-H angle (degrees).
	ThetaHOH float64
	// ROM is the O to M-site distance along the HOH bisector (angstrom).
	ROM float64
}

// TIP4P returns the published TIP4P parameters (Jorgensen et al. 1983),
// the benchmark model of section 3.5.
func TIP4P() WaterModel {
	return WaterModel{
		EpsilonOO: 0.1550,
		SigmaOO:   3.154,
		QH:        0.52,
		ROH:       0.9572,
		ThetaHOH:  104.52,
		ROM:       0.15,
	}
}

// QM returns the M-site charge, -2*QH (charge neutrality).
func (m WaterModel) QM() float64 { return -2 * m.QH }

// HHDist returns the rigid H-H distance implied by ROH and ThetaHOH.
func (m WaterModel) HHDist() float64 {
	return 2 * m.ROH * math.Sin(m.ThetaHOH/2*math.Pi/180)
}

// MSiteGamma returns the fraction gamma such that
// rM = rO + gamma * (midpoint(H1,H2) - rO); gamma is constant for a rigid
// geometry.
func (m WaterModel) MSiteGamma() float64 {
	dOMid := m.ROH * math.Cos(m.ThetaHOH/2*math.Pi/180)
	return m.ROM / dOMid
}

// Site indices within one molecule. Each water has three material sites
// (O, H1, H2) and one virtual site (M) carrying the negative charge.
const (
	SiteO = iota
	SiteH1
	SiteH2
	SitesPerMol // material sites per molecule
)

// System is the complete simulation state for N rigid water molecules.
type System struct {
	// Model is the current force-field parameterization.
	Model WaterModel
	// Box is the periodic cell.
	Box Box
	// N is the number of molecules.
	N int

	// Pos, Vel, Force are per-material-site state, indexed mol*3+site.
	Pos, Vel, Force []Vec3
	// MPos holds the virtual M-site positions, rebuilt from Pos each step.
	MPos []Vec3
	// Mass holds per-site masses.
	Mass []float64

	// Cutoff is the nonbonded cutoff radius (angstrom).
	Cutoff float64
	// Alpha is the damped-shifted-force Coulomb damping parameter (1/A).
	Alpha float64

	// Potential and Virial are filled by ComputeForces.
	Potential float64
	Virial    float64
}

// Config describes a water system to build.
type Config struct {
	// N is the number of molecules; it must be a perfect cube times 1 for
	// the lattice builder (8, 27, 64, 125, 216, ...).
	N int
	// Density is the target mass density in g/cm^3 (0 selects 0.997).
	Density float64
	// Model is the initial parameterization (zero value selects TIP4P).
	Model WaterModel
	// T is the initial temperature in kelvin for Maxwell-Boltzmann
	// velocities (0 selects 298).
	T float64
	// Cutoff in angstrom (0 selects min(box/2, 8.5)).
	Cutoff float64
	// Seed seeds velocity and orientation randomization.
	Seed int64
}

// NewSystem builds N water molecules on a cubic lattice at the target
// density with random orientations and Maxwell-Boltzmann velocities.
func NewSystem(cfg Config) (*System, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("md: need at least 2 molecules, got %d", cfg.N)
	}
	side := int(math.Round(math.Cbrt(float64(cfg.N))))
	if side*side*side != cfg.N {
		return nil, fmt.Errorf("md: N = %d is not a perfect cube", cfg.N)
	}
	if cfg.Density == 0 {
		cfg.Density = 0.997
	}
	if cfg.Model == (WaterModel{}) {
		cfg.Model = TIP4P()
	}
	if cfg.T == 0 {
		cfg.T = 298
	}

	// box edge from density: V = N*M/(rho*NA); with M in g/mol, rho in
	// g/cm^3, V in A^3: V = N * M / (rho * 0.60221408).
	vol := float64(cfg.N) * WaterMolarMass / (cfg.Density * 0.60221408)
	L := math.Cbrt(vol)

	s := &System{
		Model: cfg.Model,
		Box:   Box{L: L},
		N:     cfg.N,
		Pos:   make([]Vec3, cfg.N*SitesPerMol),
		Vel:   make([]Vec3, cfg.N*SitesPerMol),
		Force: make([]Vec3, cfg.N*SitesPerMol),
		MPos:  make([]Vec3, cfg.N),
		Mass:  make([]float64, cfg.N*SitesPerMol),
	}
	s.Cutoff = cfg.Cutoff
	if s.Cutoff == 0 {
		s.Cutoff = math.Min(L/2, 8.5)
	}
	if s.Cutoff > L/2 {
		return nil, fmt.Errorf("md: cutoff %.2f exceeds half box %.2f", s.Cutoff, L/2)
	}
	s.Alpha = 0.2

	// Normals come from the Source's own ziggurat, which no compiler can
	// fuse into a different rounding; uniforms still go through the
	// rand.Rand over the same Source, so the sequence is the stdlib's.
	src := noise.NewSource(cfg.Seed)
	rng := rand.New(src)
	spacing := L / float64(side)
	mol := 0
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				center := Vec3{
					(float64(i) + 0.5) * spacing,
					(float64(j) + 0.5) * spacing,
					(float64(k) + 0.5) * spacing,
				}
				s.placeMolecule(mol, center, src, rng)
				mol++
			}
		}
	}
	for m := 0; m < cfg.N; m++ {
		b := m * SitesPerMol
		s.Mass[b+SiteO] = MassO
		s.Mass[b+SiteH1] = MassH
		s.Mass[b+SiteH2] = MassH
	}
	// Random orientations on a dense lattice leave hydrogen-hydrogen
	// clashes whose Coulomb energy would flash-heat the system; a short
	// constrained steepest descent removes them before velocities exist.
	s.Minimize(60, 0.05)
	s.initVelocities(cfg.T, src)
	s.UpdateMSites()
	return s, nil
}

// Minimize relaxes clashes by constrained steepest descent: each pass moves
// every site along its force with the largest displacement capped at maxDisp
// angstrom, then re-imposes the rigid geometry. Velocities are zeroed.
func (s *System) Minimize(steps int, maxDisp float64) {
	prev := make([]Vec3, len(s.Pos))
	for it := 0; it < steps; it++ {
		s.ComputeForces()
		fmax := 0.0
		for _, f := range s.Force {
			if n := f.Norm(); n > fmax {
				fmax = n
			}
		}
		if fmax == 0 {
			break
		}
		scale := maxDisp / fmax
		copy(prev, s.Pos)
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].Add(s.Force[i].Scale(scale))
		}
		// SHAKE restores the rigid geometry; dt only scales its velocity
		// correction, which the final zeroing discards.
		if err := s.shake(prev, 1.0); err != nil {
			copy(s.Pos, prev) // degenerate geometry: keep the previous state
			break
		}
	}
	for i := range s.Vel {
		s.Vel[i] = Vec3{}
	}
}

// placeMolecule positions one rigid water with a uniformly random
// orientation about the given oxygen position. rng is a rand.Rand over src.
func (s *System) placeMolecule(mol int, oPos Vec3, src *noise.Source, rng *rand.Rand) {
	m := s.Model
	half := m.ThetaHOH / 2 * math.Pi / 180
	// Local geometry: O at origin, H's in the xz-plane.
	h1 := Vec3{m.ROH * math.Sin(half), 0, m.ROH * math.Cos(half)}
	h2 := Vec3{-m.ROH * math.Sin(half), 0, m.ROH * math.Cos(half)}

	// Random rotation: uniform axis + angle (adequate for initialization).
	axis := Vec3{src.NormFloat64(), src.NormFloat64(), src.NormFloat64()}.Normalize()
	if axis.Norm() == 0 {
		axis = Vec3{0, 0, 1}
	}
	angle := rng.Float64() * 2 * math.Pi
	rot := func(v Vec3) Vec3 { return rotate(v, axis, angle) }

	b := mol * SitesPerMol
	s.Pos[b+SiteO] = oPos
	s.Pos[b+SiteH1] = oPos.Add(rot(h1))
	s.Pos[b+SiteH2] = oPos.Add(rot(h2))
}

// rotate applies Rodrigues' rotation of v around the unit axis by angle.
func rotate(v, axis Vec3, angle float64) Vec3 {
	c, sn := math.Cos(angle), math.Sin(angle)
	return v.Scale(c).
		Add(axis.Cross(v).Scale(sn)).
		Add(axis.Scale(axis.Dot(v) * (1 - c)))
}

// initVelocities draws Maxwell-Boltzmann velocities at temperature T,
// removes the center-of-mass drift, projects out the components violating
// the rigid constraints, and rescales to hit T exactly on the constrained
// degrees of freedom.
func (s *System) initVelocities(T float64, src *noise.Source) {
	for i := range s.Vel {
		sd := math.Sqrt(Boltzmann * T * KcalPerMolToInternal / s.Mass[i])
		s.Vel[i] = Vec3{
			sd * src.NormFloat64(),
			sd * src.NormFloat64(),
			sd * src.NormFloat64(),
		}
	}
	s.RemoveDrift()
	// Project onto the constraint manifold; ignore a non-convergence here
	// since the first integration step re-imposes the constraints anyway.
	_ = s.rattleVelocities()
	s.RemoveDrift()
	if cur := s.Temperature(); cur > 0 {
		f := math.Sqrt(T / cur)
		for i := range s.Vel {
			s.Vel[i] = s.Vel[i].Scale(f)
		}
	}
}

// RemoveDrift zeroes the total momentum.
func (s *System) RemoveDrift() {
	var p Vec3
	mTot := 0.0
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
		mTot += s.Mass[i]
	}
	corr := p.Scale(1 / mTot)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(corr)
	}
}

// UpdateMSites recomputes the virtual M-site position of every molecule from
// the current material-site positions.
func (s *System) UpdateMSites() {
	gamma := s.Model.MSiteGamma()
	for m := 0; m < s.N; m++ {
		b := m * SitesPerMol
		o := s.Pos[b+SiteO]
		mid := s.Pos[b+SiteH1].Add(s.Pos[b+SiteH2]).Scale(0.5)
		s.MPos[m] = o.Add(mid.Sub(o).Scale(gamma))
	}
}

// KineticEnergy returns the total kinetic energy in kcal/mol.
func (s *System) KineticEnergy() float64 {
	ke := 0.0
	for i := range s.Vel {
		ke += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return ke / KcalPerMolToInternal
}

// DegreesOfFreedom returns the constrained degrees of freedom: 9 per
// molecule minus 3 constraints each, minus 3 for the removed COM drift.
func (s *System) DegreesOfFreedom() int { return 6*s.N - 3 }

// Temperature returns the instantaneous kinetic temperature in kelvin.
func (s *System) Temperature() float64 {
	return 2 * s.KineticEnergy() / (float64(s.DegreesOfFreedom()) * Boltzmann)
}

// TotalMomentum returns the summed momentum vector (amu*A/fs).
func (s *System) TotalMomentum() Vec3 {
	var p Vec3
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	return p
}

// COM returns the center of mass of one molecule.
func (s *System) COM(mol int) Vec3 {
	b := mol * SitesPerMol
	tot := 0.0
	var c Vec3
	for site := 0; site < SitesPerMol; site++ {
		m := s.Mass[b+site]
		c = c.Add(s.Pos[b+site].Scale(m))
		tot += m
	}
	return c.Scale(1 / tot)
}
