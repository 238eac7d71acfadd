package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/noise"
	"repro/internal/sim"
)

// RunSpec is the resolved, strategy-agnostic description of one optimization
// run: what the repro facade's functional options compile into, what a job
// spec translates to, and what a Strategy consumes. The driver (Run) resolves
// the strategy by name from the process-wide registry, so adding an optimizer
// is a Register call, not a core fork.
type RunSpec struct {
	// Strategy selects the optimizer by registry name (canonical or alias,
	// case-insensitive). Empty selects "pc".
	Strategy string
	// Config carries the decision-policy parameters, sampling schedule,
	// budgets and callbacks (Trace, Checkpoint). Config.Algorithm is
	// overridden by NM-family strategies with their own policy, so the
	// strategy name is authoritative.
	Config Config
	// Initial is an explicit initial simplex (d+1 vertices of dimension d).
	// Nil lets the strategy draw its own start from the box.
	Initial [][]float64
	// Seed drives strategy-owned randomness: the uniform initial-simplex
	// draw and the swarm initialization of pso-family strategies.
	Seed int64
	// Lo and Hi bound the uniform initial-simplex draw (NM family) and the
	// search box (pso family) per coordinate. Only meaningful with HasBox.
	Lo, Hi float64
	// HasBox records that Lo/Hi were explicitly provided.
	HasBox bool
	// Restarts is the number of §1.3.5.1 restart legs after the first
	// convergence (NM family).
	Restarts int
	// RestartScale gives the rebuilt-simplex edge lengths: one entry per
	// dimension, or a single entry broadcast to every dimension, or empty
	// for 1.0 everywhere. Pso-family strategies reuse it as the local
	// refinement scale of the hybrid.
	RestartScale []float64
	// ScaleDecay multiplies the restart scale after each leg; 0 selects 0.5.
	// With Restarts > 0 it must lie in (0, 1].
	ScaleDecay float64
	// Resume continues a checkpointed run from its snapshot instead of
	// starting fresh. Requires a Resumable strategy and a sim.Snapshotter
	// space.
	Resume *Snapshot
	// Particles is the swarm size for pso-family strategies (0 = default).
	Particles int
	// SwarmIters is the number of swarm updates for pso-family strategies
	// (0 = default).
	SwarmIters int
}

// ScaleVector resolves RestartScale against the space dimension: empty means
// 1.0 per dimension, a single entry broadcasts, a d-length vector is used
// verbatim. Every entry must be positive.
func (spec *RunSpec) ScaleVector(d int) ([]float64, error) {
	out := make([]float64, d)
	switch len(spec.RestartScale) {
	case 0:
		for i := range out {
			out[i] = 1
		}
	case 1:
		for i := range out {
			out[i] = spec.RestartScale[0]
		}
	case d:
		copy(out, spec.RestartScale)
	default:
		return nil, fmt.Errorf("core: restart scale has %d entries, want 1 or %d", len(spec.RestartScale), d)
	}
	for i, s := range out {
		if s <= 0 {
			return nil, fmt.Errorf("core: restart scale[%d] = %v must be positive", i, s)
		}
	}
	return out, nil
}

// Strategy is one pluggable optimization policy: the unit of registration in
// the strategy registry. The five NM-family policies, the particle swarm and
// the PSO→simplex hybrid are all strategies; third-party optimizers join by
// implementing this interface and calling Register (through the repro facade
// outside this module).
//
// Contract:
//   - Name returns the canonical registry key, lower-case and stable (it is
//     what jobs.Spec.Algorithm and HTTP clients use).
//   - Validate rejects a spec the strategy cannot run, before any sampling,
//     with a descriptive error. It must not mutate the space.
//   - Run executes the spec under ctx on the space. Cancellation is a
//     termination criterion, not an error: the run stops within one sampling
//     round and the Result reports Termination "canceled". When spec.Resume
//     is non-nil (only if Resumable) the strategy continues from that state
//     bitwise-deterministically.
//   - Resumable reports whether the strategy supports Config.Checkpoint and
//     spec.Resume. The driver rejects checkpoint/resume specs for strategies
//     that return false.
type Strategy interface {
	Name() string
	Validate(space sim.Space, spec *RunSpec) error
	Run(ctx context.Context, space sim.Space, spec *RunSpec) (*Result, error)
	Resumable() bool
}

// AlgorithmStrategy is implemented by strategies that are one of the
// NM-family Algorithm policies; ParseAlgorithm uses it to resolve names
// through the registry.
type AlgorithmStrategy interface {
	Strategy
	Algorithm() Algorithm
}

// StrategyInfo describes one registered strategy (the GET /strategies
// payload of the optd server).
type StrategyInfo struct {
	// Name is the canonical registry name.
	Name string `json:"name"`
	// Aliases are alternative names accepted by LookupStrategy.
	Aliases []string `json:"aliases,omitempty"`
	// Resumable reports checkpoint/resume support.
	Resumable bool `json:"resumable"`
	// Algorithm is the NM-family policy name for simplex strategies, empty
	// for global strategies like pso.
	Algorithm string `json:"algorithm,omitempty"`
}

var (
	stratMu      sync.RWMutex
	stratByName  = map[string]Strategy{}
	stratAliases = map[string][]string{} // canonical -> aliases
	aliasToName  = map[string]string{}   // alias -> canonical
)

// Register adds a strategy to the process-wide registry under its canonical
// Name plus the given aliases. Names are matched case-insensitively. It
// panics on a duplicate name or alias — registration happens in package
// init, where a collision is a programming error.
func Register(s Strategy, aliases ...string) {
	name := strings.ToLower(s.Name())
	if name == "" {
		panic("core: Register: empty strategy name")
	}
	stratMu.Lock()
	defer stratMu.Unlock()
	if _, dup := stratByName[name]; dup {
		panic(fmt.Sprintf("core: Register: duplicate strategy %q", name))
	}
	if prev, dup := aliasToName[name]; dup {
		panic(fmt.Sprintf("core: Register: strategy %q collides with an alias of %q", name, prev))
	}
	// seen catches duplicates within this call too (a repeated alias, or an
	// alias equal to the strategy's own name).
	seen := map[string]bool{name: true}
	for _, a := range aliases {
		a = strings.ToLower(a)
		if _, dup := stratByName[a]; dup {
			panic(fmt.Sprintf("core: Register: alias %q collides with a strategy name", a))
		}
		if prev, dup := aliasToName[a]; dup {
			panic(fmt.Sprintf("core: Register: duplicate alias %q (already on %q)", a, prev))
		}
		if seen[a] {
			panic(fmt.Sprintf("core: Register: duplicate alias %q in one registration", a))
		}
		seen[a] = true
	}
	stratByName[name] = s
	for _, a := range aliases {
		a = strings.ToLower(a)
		aliasToName[a] = name
		stratAliases[name] = append(stratAliases[name], a)
	}
}

// Strategies returns the canonical names of every registered strategy,
// sorted.
func Strategies() []string {
	stratMu.RLock()
	defer stratMu.RUnlock()
	out := make([]string, 0, len(stratByName))
	//optlint:nondeterministic-ok names are sorted below
	for name := range stratByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StrategyInfos returns a description of every registered strategy, sorted
// by name.
func StrategyInfos() []StrategyInfo {
	stratMu.RLock()
	defer stratMu.RUnlock()
	out := make([]StrategyInfo, 0, len(stratByName))
	//optlint:nondeterministic-ok infos are sorted by name below
	for name, s := range stratByName {
		info := StrategyInfo{Name: name, Resumable: s.Resumable()}
		info.Aliases = append(info.Aliases, stratAliases[name]...)
		sort.Strings(info.Aliases)
		if as, ok := s.(AlgorithmStrategy); ok {
			info.Algorithm = as.Algorithm().String()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupStrategy resolves a strategy by canonical name or alias,
// case-insensitively.
func LookupStrategy(name string) (Strategy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	stratMu.RLock()
	defer stratMu.RUnlock()
	if s, ok := stratByName[key]; ok {
		return s, nil
	}
	if canon, ok := aliasToName[key]; ok {
		return stratByName[canon], nil
	}
	names := make([]string, 0, len(stratByName))
	//optlint:nondeterministic-ok error-message name list is sorted below
	for n := range stratByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("core: unknown strategy %q (registered: %s)", name, strings.Join(names, ", "))
}

// Run is the one way to run an optimizer: repro.Run, the jobs manager, the
// experiment drivers and the hybrid's local leg all call it. It resolves
// spec.Strategy from the registry, applies the driver-level
// validation shared by every strategy (resume/checkpoint capability, option
// conflicts), and hands the run to the strategy.
func Run(ctx context.Context, space sim.Space, spec RunSpec) (*Result, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	name := spec.Strategy
	if name == "" {
		name = "pc"
	}
	strat, err := LookupStrategy(name)
	if err != nil {
		return nil, err
	}
	spec.Strategy = strat.Name()
	if spec.Resume != nil && spec.Initial != nil {
		return nil, errors.New("core: resume and an explicit initial simplex are mutually exclusive (the snapshot already carries the simplex)")
	}
	if spec.Resume != nil && !strat.Resumable() {
		return nil, fmt.Errorf("core: strategy %q does not support resume", strat.Name())
	}
	if spec.Config.Checkpoint != nil && !strat.Resumable() {
		return nil, fmt.Errorf("core: strategy %q does not support checkpointing", strat.Name())
	}
	if _, ok := space.(sim.Snapshotter); !ok {
		if spec.Resume != nil {
			return nil, fmt.Errorf("core: resume requires a space implementing sim.Snapshotter; %T does not", space)
		}
		if spec.Config.Checkpoint != nil {
			return nil, fmt.Errorf("core: Config.Checkpoint set but space %T does not implement sim.Snapshotter", space)
		}
	}
	if err := strat.Validate(space, &spec); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return strat.Run(ctx, space, &spec)
}

// nmStrategy adapts one NM-family decision policy (Algorithms 1-4 plus the
// Anderson criterion) to the Strategy interface. All five share the simplex
// skeleton; the strategy pins Config.Algorithm to its own policy, so the
// registry name is authoritative.
type nmStrategy struct {
	alg  Algorithm
	name string
}

func (s nmStrategy) Name() string         { return s.name }
func (s nmStrategy) Resumable() bool      { return true }
func (s nmStrategy) Algorithm() Algorithm { return s.alg }

func (s nmStrategy) Validate(space sim.Space, spec *RunSpec) error {
	d := space.Dim()
	if spec.Restarts < 0 {
		return errors.New("core: restarts must be >= 0")
	}
	if spec.Initial == nil && !spec.HasBox && spec.Resume == nil {
		return fmt.Errorf("core: strategy %q needs a starting simplex: provide an initial simplex, a uniform-draw box, or a resume snapshot", s.name)
	}
	if spec.HasBox && !(spec.Lo < spec.Hi) {
		return fmt.Errorf("core: simplex draw box [%v, %v) is empty", spec.Lo, spec.Hi)
	}
	if spec.Initial != nil && len(spec.Initial) != d+1 {
		return fmt.Errorf("core: initial simplex has %d vertices, want d+1 = %d", len(spec.Initial), d+1)
	}
	for i, v := range spec.Initial {
		if len(v) != d {
			return fmt.Errorf("core: initial vertex %d has dimension %d, want %d", i, len(v), d)
		}
	}
	if spec.Resume != nil {
		if err := checkSnapshot(spec.Resume, d); err != nil {
			return err
		}
	}
	if spec.Restarts > 0 {
		if _, err := spec.ScaleVector(d); err != nil {
			return err
		}
		if !(spec.ScaleDecay >= 0 && spec.ScaleDecay <= 1) {
			return fmt.Errorf("core: scale decay %v must be in (0, 1] (0 selects 0.5)", spec.ScaleDecay)
		}
		if spec.Resume != nil && spec.Resume.Restart != nil {
			if err := checkRestartState(spec.Resume.Restart, spec.Restarts, d); err != nil {
				return err
			}
		}
	}
	cfg := spec.Config
	cfg.Algorithm = s.alg
	if err := cfg.validate(d); err != nil {
		return err
	}
	return checkSpeculative(space, cfg)
}

// Run is the NM family's one leg driver. A run is 1+Restarts legs of the
// same simplex loop (the §1.3.5.1 restart strategy): the first leg starts
// from spec.Resume's snapshot or from the initial simplex (explicit, or drawn
// uniformly from the box by spec.Seed), and every restart leg from a fresh
// simplex around the best vertex so far: the first with the RestartScale edge
// lengths, each later one with the previous leg's times ScaleDecay. A plain
// run is the first leg alone. Effort counters accumulate over legs, the
// walltime budget applies per leg, and a canceled leg ends the run. With
// restarts, every Config.Checkpoint snapshot carries the leg state
// (Snapshot.Restart) a resume continues from; a plain run's snapshots carry
// none.
func (s nmStrategy) Run(ctx context.Context, space sim.Space, spec *RunSpec) (*Result, error) {
	cfg := spec.Config
	cfg.Algorithm = s.alg
	resume, initial := spec.Resume, spec.Initial
	if resume == nil && initial == nil {
		initial = UniformSimplex(space.Dim(), spec.Lo, spec.Hi, rand.New(noise.NewSource(spec.Seed)))
	}
	leg := 0
	var scale []float64
	var best, total *Result // the best leg and the running totals; nil until a leg ends
	if spec.Restarts > 0 {
		scale, _ = spec.ScaleVector(space.Dim()) // checked by Validate
		if resume != nil && resume.Restart != nil {
			rs := resume.Restart
			leg, scale, best = rs.Leg, append([]float64(nil), rs.Scale...), rs.Best
			if rs.Total != nil {
				t := *rs.Total // mergeLeg folds into it; the snapshot stays intact
				total = &t
			}
		}
	}
	decay := spec.ScaleDecay
	if decay == 0 {
		decay = 0.5
	}
	for ; ; leg++ {
		legCfg := cfg
		if cfg.Checkpoint != nil && spec.Restarts > 0 {
			legCfg.Checkpoint = restartCheckpoint(cfg.Checkpoint, leg, scale, best, total)
		}
		var o *optimizer
		var err error
		if resume != nil {
			o, err = restoreOptimizer(ctx, space, resume, legCfg)
		} else {
			o, err = freshOptimizer(ctx, space, initial, legCfg)
		}
		if err != nil {
			return nil, err
		}
		res, err := o.run()
		if err != nil {
			return nil, err
		}
		if total == nil {
			t := *res
			best, total = res, &t
		} else {
			best = mergeLeg(total, best, res)
		}
		if res.Termination == "canceled" {
			total.Termination = "canceled"
			return total, nil
		}
		if leg >= spec.Restarts {
			return total, nil
		}
		if leg > 0 { // the first restart leg uses the undecayed scale
			for i := range scale {
				scale[i] *= decay
			}
		}
		resume, initial = nil, simplexAround(best.BestX, scale)
	}
}

func init() {
	Register(nmStrategy{DET, "det"}, "deterministic")
	Register(nmStrategy{MN, "mn"}, "max-noise", "maxnoise")
	Register(nmStrategy{PC, "pc"})
	Register(nmStrategy{PCMN, "pc+mn"}, "pcmn", "pc-mn")
	Register(nmStrategy{AndersonNM, "anderson"}, "andersonnm")
}
