package jobs

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/sim"
	"repro/internal/testfunc"

	// Register the pso and hybrid strategies, so job specs (and everything
	// above this package: the repro facade, cmd/optd) can select them by
	// name through the core strategy registry.
	_ "repro/internal/pso"
)

// Spec is the serializable description of one optimization job — everything
// needed to (re)build the run from scratch in any process, which is what
// makes checkpoints durable: a checkpoint file pairs a Spec with a
// core.Snapshot, and a recovering manager reconstructs the space from the
// Spec and fast-forwards it from the Snapshot.
//
// The objective is referenced by name (the testfunc catalog plus any
// custom objectives registered in Config.Objectives) rather than carried as
// code, exactly as a black-box optimization service's API would.
type Spec struct {
	// Name is an optional human label echoed in Status.
	Name string `json:"name,omitempty"`
	// Tenant is the namespace the job is accounted to: quotas and rate
	// limits (Config.DefaultQuota, Config.TenantQuotas) apply per tenant,
	// and the optd server scopes /v1/tenants/{tenant}/jobs to it. Empty
	// means the "default" tenant. Tenant names share the record-ID
	// character set (letters, digits, ., _, -).
	Tenant string `json:"tenant,omitempty"`
	// Objective names the objective function (e.g. "rosenbrock", "powell").
	Objective string `json:"objective"`
	// Dim is the parameter-space dimension.
	Dim int `json:"dim"`
	// Algorithm selects the optimization strategy by registry name ("det",
	// "mn", "pc", "pc+mn", "anderson", "pso", "hybrid", or any registered
	// alias such as "pcmn"/"pc-mn"). Empty defaults to "pc". GET /strategies
	// on the optd server lists what the process can run.
	Algorithm string `json:"algorithm,omitempty"`
	// Sigma0 is the eq-1.2 noise strength of the observation model.
	Sigma0 float64 `json:"sigma0"`
	// Seed seeds both the noise streams and the initial simplex draw, so a
	// job is reproducible from its spec alone.
	Seed int64 `json:"seed"`
	// Budget is the virtual walltime budget per leg (MaxWalltime). Zero
	// keeps the core default.
	Budget float64 `json:"budget,omitempty"`
	// Tol is the spread termination tolerance. Zero keeps the core default;
	// a negative value disables the tolerance criterion (run to budget).
	Tol float64 `json:"tol,omitempty"`
	// MaxIterations caps the simplex steps. Zero keeps the core default.
	MaxIterations int `json:"max_iterations,omitempty"`
	// K overrides the PC confidence multiplier and MN wait factor when > 0.
	K float64 `json:"k,omitempty"`
	// Lo and Hi bound the uniform initial-simplex draw. Both zero selects
	// the default [-5, 5).
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Restarts is the number of §1.3.5.1 restart legs after the first
	// convergence.
	Restarts int `json:"restarts,omitempty"`
	// RestartScale is the rebuilt-simplex edge length per dimension when
	// Restarts > 0. Zero selects 1.
	RestartScale float64 `json:"restart_scale,omitempty"`
	// Workers gives the job's space a private worker pool of that size
	// instead of the manager's shared fleet. Leave zero for the fleet.
	Workers int `json:"workers,omitempty"`
	// Fleet routes the job's sampling over the manager's remote worker
	// fleet (Config.Fleet; optd's -fleet-addr listener). The objective must
	// resolve in the remote workers' catalogs too. Results are bitwise
	// identical to the in-process run of the same spec.
	Fleet bool `json:"fleet,omitempty"`
	// Speculative enables batch-speculative candidate evaluation for
	// NM-family strategies: every candidate move of a simplex step is
	// submitted as one prioritized sampling batch before the decision. Runs
	// stay bitwise-deterministic and checkpoint/resume-exact.
	Speculative bool `json:"speculative,omitempty"`
	// AdaptiveHalfWidth, when positive, enables variance-adaptive
	// resampling: fresh points sample in growing rounds until their
	// confidence half-width (1.96 sigma) falls to this target, replacing
	// the fixed initial allotment.
	AdaptiveHalfWidth float64 `json:"adaptive_half_width,omitempty"`
	// Particles is the swarm size for the "pso" and "hybrid" strategies.
	// Zero keeps the strategy default.
	Particles int `json:"particles,omitempty"`
	// SwarmIterations is the number of swarm updates for the "pso" and
	// "hybrid" strategies. Zero keeps the strategy default.
	SwarmIterations int `json:"swarm_iterations,omitempty"`
}

// normalize fills defaults in place.
func (s *Spec) normalize() {
	if s.Algorithm == "" {
		s.Algorithm = "pc"
	}
	if s.Lo == 0 && s.Hi == 0 {
		s.Lo, s.Hi = -5, 5
	}
	if s.RestartScale == 0 {
		s.RestartScale = 1
	}
}

// maxDim, maxWorkers and maxParticles bound client-supplied sizes: specs
// arrive from untrusted HTTP clients, and an absurd dimension would allocate
// a multi-GB simplex (a fatal OOM no recover can catch) while an absurd
// private worker count would bypass the bounded shared fleet. The paper's
// largest study is d=100; these caps are far above any real workload.
const (
	maxDim       = 10_000
	maxWorkers   = 256
	maxParticles = 10_000
)

// validate checks the spec against the manager's objective registry.
func (s *Spec) validate(m *Manager) error {
	if s.Tenant != "" && !jobstore.ValidID(s.Tenant) {
		return fmt.Errorf("jobs: invalid Spec.Tenant %q (want letters, digits, '.', '_' or '-')", s.Tenant)
	}
	if s.Dim < 1 {
		return errors.New("jobs: Spec.Dim must be >= 1")
	}
	if s.Dim > maxDim {
		return fmt.Errorf("jobs: Spec.Dim %d exceeds the maximum %d", s.Dim, maxDim)
	}
	if s.Sigma0 < 0 {
		return errors.New("jobs: Spec.Sigma0 must be non-negative")
	}
	if s.Lo >= s.Hi {
		return fmt.Errorf("jobs: initial simplex bounds [%v, %v) are empty", s.Lo, s.Hi)
	}
	if s.Restarts < 0 {
		return errors.New("jobs: Spec.Restarts must be >= 0")
	}
	if s.RestartScale < 0 {
		return errors.New("jobs: Spec.RestartScale must be positive")
	}
	if s.Workers < 0 || s.Workers > maxWorkers {
		return fmt.Errorf("jobs: Spec.Workers must be in 0..%d", maxWorkers)
	}
	if s.Fleet {
		if m.cfg.Fleet == nil {
			return errors.New("jobs: Spec.Fleet set but the manager has no remote fleet (Config.Fleet)")
		}
		if s.Workers > 0 {
			return errors.New("jobs: Spec.Fleet and Spec.Workers are mutually exclusive")
		}
	}
	if s.AdaptiveHalfWidth < 0 {
		return errors.New("jobs: Spec.AdaptiveHalfWidth must be non-negative")
	}
	if s.Particles < 0 || s.Particles > maxParticles {
		return fmt.Errorf("jobs: Spec.Particles must be in 0..%d", maxParticles)
	}
	if s.SwarmIterations < 0 {
		return errors.New("jobs: Spec.SwarmIterations must be >= 0")
	}
	strat, err := core.LookupStrategy(s.Algorithm)
	if err != nil {
		return err
	}
	if _, isNM := strat.(core.AlgorithmStrategy); !isNM && s.Restarts > 0 {
		return fmt.Errorf("jobs: strategy %q does not take restart legs", strat.Name())
	}
	f, err := m.objective(s.Objective)
	if err != nil {
		return err
	}
	if f.Dim != 0 && f.Dim != s.Dim {
		return fmt.Errorf("jobs: objective %q requires dimension %d, spec has %d", s.Objective, f.Dim, s.Dim)
	}
	return nil
}

// objective resolves a named objective: custom registrations first, then the
// testfunc catalog.
func (m *Manager) objective(name string) (testfunc.Func, error) {
	if f, ok := m.cfg.Objectives[name]; ok {
		return testfunc.Func{Name: name, F: f}, nil
	}
	return testfunc.ByName(name)
}

// space builds the job's sampling backend. Resumed jobs rebuild an identical
// space from the same spec, which is what the snapshot determinism contract
// requires.
func (m *Manager) space(spec Spec) (*sim.LocalSpace, error) {
	f, err := m.objective(spec.Objective)
	if err != nil {
		return nil, err
	}
	cfg := sim.LocalConfig{
		Dim:        spec.Dim,
		F:          f.F,
		Sigma0:     sim.ConstSigma(spec.Sigma0),
		Seed:       spec.Seed,
		Parallel:   true,
		SampleCost: m.cfg.SampleCost,
	}
	switch {
	case spec.Fleet:
		if m.cfg.Fleet == nil {
			// Submission validates this, but a checkpointed fleet job can be
			// recovered by a manager started without a fleet; failing the job
			// beats silently downgrading it to an in-process pool.
			return nil, errors.New("jobs: spec requires a remote fleet but the manager has none (Config.Fleet)")
		}
		cfg.Fleet = m.cfg.Fleet
		cfg.FleetObjective = spec.Objective
	case spec.Workers > 0:
		cfg.Workers = spec.Workers
	default:
		cfg.Pool = m.pool
		// Costed batches go to the shared fleet charged to the job's
		// tenant, so the scheduler can divide fleet capacity by
		// Quota.Weight.
		cfg.Tenant = tenantOf(spec.Tenant)
	}
	return sim.NewLocalSpace(cfg), nil
}

// runSpec translates the job spec into the strategy-agnostic core.RunSpec
// the shared driver consumes. NM-family jobs draw their initial simplex from
// the spec seed inside the strategy — the same core.UniformSimplex draw
// cmd/stochsimplex uses, so a spec seed reproduces the CLI run exactly;
// pso-family jobs use the same box and seed for the swarm.
func (spec Spec) runSpec() (core.RunSpec, error) {
	strat, err := core.LookupStrategy(spec.Algorithm)
	if err != nil {
		return core.RunSpec{}, err
	}
	alg := core.PC
	if as, ok := strat.(core.AlgorithmStrategy); ok {
		alg = as.Algorithm()
	}
	cfg := core.DefaultConfig(alg)
	if spec.Budget > 0 {
		cfg.MaxWalltime = spec.Budget
	}
	switch {
	case spec.Tol > 0:
		cfg.Tol = spec.Tol
	case spec.Tol < 0:
		cfg.Tol = 0
	}
	if spec.MaxIterations > 0 {
		cfg.MaxIterations = spec.MaxIterations
	}
	if spec.K > 0 {
		cfg.K = spec.K
		cfg.MNK = spec.K
	}
	cfg.Speculative = spec.Speculative
	if spec.AdaptiveHalfWidth > 0 {
		cfg.AdaptiveSamples = true
		cfg.AdaptiveHalfWidth = spec.AdaptiveHalfWidth
	}
	return core.RunSpec{
		Strategy:     strat.Name(),
		Config:       cfg,
		Seed:         spec.Seed,
		Lo:           spec.Lo,
		Hi:           spec.Hi,
		HasBox:       true,
		Restarts:     spec.Restarts,
		RestartScale: []float64{spec.RestartScale},
		Particles:    spec.Particles,
		SwarmIters:   spec.SwarmIterations,
	}, nil
}

// resumable reports whether the spec's strategy supports checkpoint/resume;
// the manager skips durable checkpointing for strategies that do not.
func (spec Spec) resumable() bool {
	strat, err := core.LookupStrategy(spec.Algorithm)
	return err == nil && strat.Resumable()
}
