// Package core implements the paper's primary contribution: stochastic
// variants of the Nelder-Mead downhill simplex for objective functions
// observed through sampling noise whose variance decays with sampling time
// (eq 1.2).
//
// Five decision policies are provided, following Algorithms 1-4 of chapter 2:
//
//   - DET: the deterministic downhill simplex (Algorithm 1). Note the paper's
//     pseudocode accepts a reflection whenever g(ref) < g(max) rather than the
//     textbook g(ref) < g(smax) band; we implement the paper verbatim.
//   - MN: max-noise (Algorithm 2). Before each simplex decision, sampling
//     continues until the noisiest vertex's variance is small compared to the
//     internal variance of the vertex function values (eq 2.3).
//   - PC: point-to-point comparison (Algorithm 3). Each of seven comparison
//     conditions is made at a k-sigma confidence separation; indeterminate
//     comparisons trigger resampling of the vertices involved. Which
//     conditions use the error bars is configurable (the c1..c7 ablations of
//     Figs 3.8-3.17).
//   - PCMN: PC and MN combined (Algorithm 4).
//   - AndersonNM: the convergence criterion of Anderson et al. (eq 2.4,
//     sigma_i^2 < k1 * 2^(-l(1+k2)) at contraction level l) evaluated inside
//     the same NM skeleton, exactly as the paper's comparison does.
//
// One interpretation decision is worth flagging: Algorithm 3's written
// condition 5 is the literal complement of condition 1, which would make the
// trailing "resample until condition 1 or 5" unreachable. The c3/c4 and c6/c7
// pairs are written symmetrically (a +-k*sigma dead band separates them), and
// the ablation figures treat c5's error bar as independently switchable, so we
// implement c5 symmetrically too: g(ref) - k*sigma_ref >= g(smax) +
// k*sigma_smax. With error bars disabled on both c1 and c5 the two become
// exact complements, recovering the literal pseudocode.
package core

import (
	"errors"
	"fmt"
)

// Algorithm selects the simplex decision policy.
type Algorithm int

const (
	// DET is the deterministic downhill simplex (Algorithm 1).
	DET Algorithm = iota
	// MN is the max-noise algorithm (Algorithm 2).
	MN
	// PC is the point-to-point comparison algorithm (Algorithm 3).
	PC
	// PCMN combines PC and MN (Algorithm 4).
	PCMN
	// AndersonNM applies Anderson et al.'s convergence criterion (eq 2.4)
	// inside the Nelder-Mead skeleton.
	AndersonNM
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case DET:
		return "DET"
	case MN:
		return "MN"
	case PC:
		return "PC"
	case PCMN:
		return "PC+MN"
	case AndersonNM:
		return "AndersonNM"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a CLI name into an Algorithm. Names resolve
// through the strategy registry (canonical names and aliases such as "pcmn"
// and "pc-mn", case-insensitive), so ParseAlgorithm and strategy-based spec
// validation can never disagree about what a name means. Strategies that are
// not NM-family policies (e.g. "pso") are rejected here: they have no
// Algorithm value and must be run by strategy name.
func ParseAlgorithm(s string) (Algorithm, error) {
	strat, err := LookupStrategy(s)
	if err != nil {
		return 0, err
	}
	as, ok := strat.(AlgorithmStrategy)
	if !ok {
		return 0, fmt.Errorf("core: %q is a registered strategy but not a simplex algorithm; run it by strategy name", strat.Name())
	}
	return as.Algorithm(), nil
}

// ConditionMask selects which of the seven PC comparison conditions use the
// +-k*sigma error bars. Bit i-1 corresponds to condition ci.
type ConditionMask uint8

// AllConditions enables error bars in every condition (the strict "c1-7"
// variant of Figs 3.9-3.15).
const AllConditions ConditionMask = 0x7F

// Conditions builds a mask from condition numbers 1..7, e.g.
// Conditions(1, 3, 6) is the "c136" variant of Figs 3.16-3.17.
func Conditions(nums ...int) ConditionMask {
	var m ConditionMask
	for _, n := range nums {
		if n < 1 || n > 7 {
			panic(fmt.Sprintf("core: condition number %d out of range 1..7", n))
		}
		m |= 1 << (n - 1)
	}
	return m
}

// Has reports whether condition n (1..7) is in the mask.
func (m ConditionMask) Has(n int) bool { return m&(1<<(n-1)) != 0 }

// String renders the mask in the paper's cN notation.
func (m ConditionMask) String() string {
	if m == AllConditions {
		return "c1-7"
	}
	s := "c"
	for n := 1; n <= 7; n++ {
		if m.Has(n) {
			s += fmt.Sprintf("%d", n)
		}
	}
	if s == "c" {
		return "c(none)"
	}
	return s
}

// Move identifies a simplex transformation.
type Move int

const (
	// MoveNone means no transformation was applied this iteration.
	MoveNone Move = iota
	// MoveReflect replaced the worst vertex with its reflection.
	MoveReflect
	// MoveExpand replaced the worst vertex with the expansion point.
	MoveExpand
	// MoveContract replaced the worst vertex with the contraction point.
	MoveContract
	// MoveCollapse shrank every vertex halfway toward the best vertex.
	MoveCollapse
)

// String implements fmt.Stringer.
func (m Move) String() string {
	switch m {
	case MoveNone:
		return "none"
	case MoveReflect:
		return "reflect"
	case MoveExpand:
		return "expand"
	case MoveContract:
		return "contract"
	case MoveCollapse:
		return "collapse"
	default:
		return fmt.Sprintf("Move(%d)", int(m))
	}
}

// Config controls an optimization run. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// Algorithm selects the decision policy.
	Algorithm Algorithm

	// K is the confidence multiplier in PC comparisons: a decision requires
	// g(a) + K*sigma_a < g(b) - K*sigma_b. The paper uses K=1 by default and
	// K=2 in the Fig 3.7 ablation.
	K float64
	// MNK is the k of eq 2.3: the MN wait loop holds while
	// max_i sigma_i^2 > MNK * Var_internal. The paper studies k in {2..5}.
	MNK float64
	// K1, K2 parameterize the Anderson criterion (eq 2.4). The paper sets
	// K2=0 and sweeps K1 over {2^0, 2^10, 2^20, 2^30}.
	K1, K2 float64

	// ErrorBars selects which PC conditions apply the error-bar comparison.
	ErrorBars ConditionMask

	// Speculative enables batch-speculative candidate evaluation: each
	// simplex step submits the reflection, expansion and contraction
	// candidates (plus the shrink vertices when a collapse is plausible) as
	// ONE sampling batch before the decision, listed (and so dispatched) in
	// that order, then selects the accepted move from the landed results
	// and discards the rest. A step costs one batch round-trip instead of up
	// to four sequential ones, so on a worker pool of >= 3 the per-step
	// latency drops by the depth of the skipped round-trips (BENCHMARK.json's
	// jobs.run_ms on local_compute, half of whose jobs are speculative).
	// Speculative runs are bitwise-deterministic at any worker count
	// (per-candidate noise streams are pre-assigned in a fixed order) but
	// follow a different — equally valid — trajectory than sequential runs,
	// because candidates draw different stream indices and the virtual clock
	// advances once per batch. Requires a *sim.LocalSpace: backends that pin
	// live points to a bounded worker pool (mw.Space) cannot host the
	// prefetch and are rejected before any sampling.
	Speculative bool

	// AdaptiveHalfWidth, when positive, enables variance-adaptive
	// resampling of fresh points: instead of the fixed InitialSample
	// allotment, every new point samples in geometrically growing rounds,
	// at most MaxWaitRounds per fresh-point batch, until its 95% confidence
	// half-width (1.96 times the sigma the space reports) falls to
	// AdaptiveHalfWidth. The driver remembers the largest allotment a point
	// needed (the adaptive floor, persisted in snapshots) and starts
	// subsequent points there, so the growth is paid once, not per point.
	// Zero keeps the fixed allotment.
	AdaptiveHalfWidth float64

	// InitialSample is the virtual sampling time given to each new vertex.
	InitialSample float64
	// Resample is the additional sampling time per wait/resample round.
	Resample float64
	// ResampleGrowth multiplies the resample increment on each consecutive
	// round within one decision, so that reaching a 1/sqrt(t) noise target
	// takes O(log) rounds instead of O(t). Must be >= 1.
	ResampleGrowth float64

	// Tol is the convergence tolerance: the run stops when
	// max_i |g_i - g_min| <= Tol (eq 2.9).
	Tol float64
	// MaxWalltime is the virtual wall-clock budget in seconds (the paper's
	// second termination criterion). Zero means unlimited.
	MaxWalltime float64
	// MaxIterations caps the simplex steps. Zero means unlimited.
	MaxIterations int
	// MaxWaitRounds caps the wait/resample rounds within a single decision;
	// when exceeded, the decision is forced on the plain means and counted
	// in Result.ForcedDecisions. Guards against the stall the paper
	// describes for MN when "one vertex has large noise".
	MaxWaitRounds int
	// DecisionBudget optionally caps the virtual sampling time spent
	// resolving one decision before it is forced on the plain means. Zero
	// (the default, and the paper's protocol) means unlimited patience —
	// "sampling proceeds until the point where the simplex transformation
	// can be made at the chosen accuracy" — bounded only by MaxWaitRounds
	// and the global walltime. A positive value trades per-decision
	// confidence for a steadier simplex step rate.
	DecisionBudget float64

	// OverheadBase and OverheadPerDim model the master's bookkeeping and
	// file/socket I/O per simplex step (Fig 3.18c): each iteration advances
	// the wall clock by OverheadBase + OverheadPerDim*d seconds.
	OverheadBase   float64
	OverheadPerDim float64

	// Trace, if non-nil, receives one event per simplex iteration.
	Trace func(TraceEvent)

	// Checkpoint, if non-nil, receives a Snapshot of the full optimizer
	// state every CheckpointEvery iterations (every iteration when
	// CheckpointEvery <= 0). The space must implement sim.Snapshotter
	// (LocalSpace does). Taking a snapshot reads no randomness and mutates
	// nothing, so a run with checkpointing enabled is bitwise identical to
	// one without; a run resumed from any snapshot (RunSpec.Resume) is
	// bitwise identical to the uninterrupted run — the paper's §1.3.5.1
	// restart-on-failure strategy made durable. The callback must finish
	// with the snapshot (e.g. serialize it) before returning; the optimizer
	// continues immediately after.
	Checkpoint func(*Snapshot)
	// CheckpointEvery is the iteration period of Checkpoint callbacks.
	CheckpointEvery int
}

// DefaultConfig returns the parameter defaults used throughout the paper's
// computational study.
func DefaultConfig(alg Algorithm) Config {
	return Config{
		Algorithm:      alg,
		K:              1,
		MNK:            3,
		K1:             1 << 20,
		K2:             0,
		ErrorBars:      AllConditions,
		InitialSample:  1,
		Resample:       1,
		ResampleGrowth: 2,
		Tol:            1e-6,
		MaxWalltime:    1e9,
		MaxIterations:  100000,
		MaxWaitRounds:  60,
	}
}

// Validate checks the configuration against a space dimension: the
// pre-sampling gate Run and every strategy use, exported so third-party
// Strategy implementations can apply the same contract in their Validate.
func (c *Config) Validate(dim int) error { return c.validate(dim) }

func (c *Config) validate(dim int) error {
	if c.K <= 0 && (c.Algorithm == PC || c.Algorithm == PCMN) {
		return errors.New("core: Config.K must be positive for PC algorithms")
	}
	if c.MNK <= 0 && (c.Algorithm == MN || c.Algorithm == PCMN) {
		return errors.New("core: Config.MNK must be positive for MN algorithms")
	}
	if c.K1 <= 0 && c.Algorithm == AndersonNM {
		return errors.New("core: Config.K1 must be positive for AndersonNM")
	}
	if c.InitialSample <= 0 {
		return errors.New("core: Config.InitialSample must be positive")
	}
	if c.Resample <= 0 {
		return errors.New("core: Config.Resample must be positive")
	}
	if c.ResampleGrowth < 1 {
		return errors.New("core: Config.ResampleGrowth must be >= 1")
	}
	if c.Tol < 0 {
		return errors.New("core: Config.Tol must be non-negative")
	}
	if c.MaxWaitRounds <= 0 {
		return errors.New("core: Config.MaxWaitRounds must be positive")
	}
	if c.AdaptiveHalfWidth < 0 {
		return errors.New("core: Config.AdaptiveHalfWidth must be non-negative")
	}
	if dim < 1 {
		return errors.New("core: dimension must be >= 1")
	}
	return nil
}

// TraceEvent is emitted once per simplex iteration.
type TraceEvent struct {
	// Iter is the 1-based iteration number.
	Iter int
	// Time is the virtual wall-clock time at the end of the iteration.
	Time float64
	// Best is the current noisy estimate at the best vertex.
	Best float64
	// BestX is a copy of the best vertex's coordinates.
	BestX []float64
	// BestUnderlying is the noise-free objective at the best vertex when the
	// backend exposes it (LocalSpace does), else NaN.
	BestUnderlying float64
	// Spread is max_i |g_i - g_min| over the current estimates.
	Spread float64
	// Move is the transformation applied this iteration.
	Move Move
	// ContractionLevel is the level l after the move (section 2.2).
	ContractionLevel int
}

// MoveStats counts the simplex transformations applied during a run.
type MoveStats struct {
	Reflections  int
	Expansions   int
	Contractions int
	Collapses    int
}

// Result summarizes a completed optimization.
type Result struct {
	// BestX is the best vertex at termination.
	BestX []float64
	// BestG is the noisy running estimate at BestX.
	BestG float64
	// BestSigma is the standard deviation of BestG.
	BestSigma float64
	// Iterations is the number of simplex steps (the paper's N measure).
	Iterations int
	// Walltime is the virtual seconds elapsed.
	Walltime float64
	// Evaluations is the total number of sampling increments issued.
	Evaluations int64
	// Termination names the criterion that stopped the run: "tolerance",
	// "walltime", "iterations", or "canceled" (the run's context ended;
	// the result holds the best vertex found up to that point).
	Termination string
	// Moves counts the transformations applied.
	Moves MoveStats
	// WaitRounds is the total MN/Anderson wait rounds.
	WaitRounds int
	// ResampleRounds is the total PC resample rounds.
	ResampleRounds int
	// AdaptiveRounds is the total variance-adaptive growth rounds spent
	// bringing fresh points to the configured confidence half-width (zero
	// unless Config.AdaptiveHalfWidth is positive).
	AdaptiveRounds int
	// SpeculativeWaste counts speculative candidate evaluations that were
	// discarded unused (zero unless Config.Speculative is set) — the
	// sampling cost paid for collapsing a step's sequential round-trips
	// into one batch.
	SpeculativeWaste int
	// ForcedDecisions counts decisions forced after MaxWaitRounds.
	ForcedDecisions int
	// FinalSpread is max_i |g_i - g_min| at termination.
	FinalSpread float64
	// ContractionLevel is the final level l.
	ContractionLevel int
	// FinalSimplex holds the coordinates of every vertex at termination.
	FinalSimplex [][]float64
	// FinalValues holds the noisy estimates of every vertex at termination,
	// index-aligned with FinalSimplex.
	FinalValues []float64
}
