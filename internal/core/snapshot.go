package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// SnapshotVersion identifies the serialized snapshot layout. Bump it when a
// field changes incompatibly; a resume refuses snapshots from other versions.
const SnapshotVersion = 1

// Snapshot is the complete serializable state of an optimization run at a
// simplex-iteration boundary: the simplex coordinates, every vertex's
// accumulated sampling estimate and RNG stream identity, the contraction
// level, the effort counters, the virtual clock, and (for restarted runs)
// the restart-leg state. Together with the original Config and the space's
// construction parameters — which are code, not data, and are re-supplied on
// resume — it makes a killed run resumable bitwise-deterministically.
//
// Snapshots are taken only between iterations, when no trial points are
// live: the paper keeps evaluations "active on each of the d+1 vertices", so
// d+1 vertex states are exactly the live sampling state.
type Snapshot struct {
	// Version is the snapshot layout version (SnapshotVersion).
	Version int `json:"version"`
	// Dim is the parameter-space dimension, a resume-time consistency check.
	Dim int `json:"dim"`
	// Iterations is the number of completed simplex steps.
	Iterations int `json:"iterations"`
	// Level is the contraction level l (section 2.2).
	Level int `json:"level"`
	// LastMove is the transformation applied in the latest iteration.
	LastMove Move `json:"last_move"`
	// Start is the virtual-clock reading at the start of the run, so the
	// walltime budget resumes where it left off.
	Start float64 `json:"start"`
	// Moves, WaitRounds, ResampleRounds and ForcedDecisions are the effort
	// counters accumulated so far.
	Moves           MoveStats `json:"moves"`
	WaitRounds      int       `json:"wait_rounds"`
	ResampleRounds  int       `json:"resample_rounds"`
	ForcedDecisions int       `json:"forced_decisions"`
	// AdaptiveFloor and AdaptiveRounds are the variance-adaptive sampling
	// state: the learned initial allotment for fresh points and the growth
	// rounds spent so far. Recording them matters especially for snapshots
	// taken mid-restart-leg — without them a resumed run would re-grow the
	// allotment from Config.InitialSample and diverge from the
	// uninterrupted run. Zero AdaptiveFloor (a pre-adaptive snapshot) means
	// "start from Config.InitialSample".
	AdaptiveFloor  float64 `json:"adaptive_floor,omitempty"`
	AdaptiveRounds int     `json:"adaptive_rounds,omitempty"`
	// SpeculativeWaste is the count of discarded speculative candidate
	// evaluations accumulated so far.
	SpeculativeWaste int `json:"speculative_waste,omitempty"`
	// Space is the sampling backend's serializable state.
	Space sim.SpaceState `json:"space"`
	// Verts holds the d+1 vertex states in simplex order.
	Verts []sim.PointState `json:"verts"`
	// Restart, when the run has restart legs (RunSpec.Restarts > 0), records
	// which leg and the accumulated cross-leg state. Nil for plain runs, so a
	// plain run's snapshots serialize without it.
	Restart *RestartState `json:"restart,omitempty"`
}

// RestartState is the cross-leg state of a run with restart legs: which leg
// the snapshot belongs to and the totals accumulated from completed legs.
type RestartState struct {
	// Leg is 0 for the initial run, 1..Restarts for the restart legs.
	Leg int `json:"leg"`
	// Scale holds the simplex edge lengths the current leg was built with.
	Scale []float64 `json:"scale"`
	// Best is the best Result over completed legs (nil during leg 0).
	Best *Result `json:"best,omitempty"`
	// Total is the accumulated effort over completed legs (nil during leg 0).
	Total *Result `json:"total,omitempty"`
}

// MarshalBinary is the canonical serialization used by the jobs layer. Go's
// float64 JSON encoding round-trips exactly, so decode(encode(s)) preserves
// bitwise determinism.
func (s *Snapshot) MarshalBinary() ([]byte, error) { return json.Marshal(s) }

// UnmarshalBinary decodes a snapshot serialized by MarshalBinary.
func (s *Snapshot) UnmarshalBinary(data []byte) error { return json.Unmarshal(data, s) }

// snapshot exports the optimizer's state. Called only at iteration
// boundaries (o.trials empty).
func (o *optimizer) snapshot() (*Snapshot, error) {
	snapper, ok := o.space.(sim.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: space %T does not support snapshots", o.space)
	}
	s := &Snapshot{
		Version:          SnapshotVersion,
		Dim:              o.d,
		Iterations:       o.res.Iterations,
		Level:            o.level,
		LastMove:         o.lastMove,
		Start:            o.start,
		Moves:            o.res.Moves,
		WaitRounds:       o.res.WaitRounds,
		ResampleRounds:   o.res.ResampleRounds,
		ForcedDecisions:  o.res.ForcedDecisions,
		AdaptiveFloor:    o.adaptiveFloor,
		AdaptiveRounds:   o.res.AdaptiveRounds,
		SpeculativeWaste: o.res.SpeculativeWaste,
		Space:            snapper.ExportState(),
		Verts:            make([]sim.PointState, len(o.verts)),
	}
	for i, v := range o.verts {
		ps, err := snapper.ExportPoint(v)
		if err != nil {
			return nil, err
		}
		s.Verts[i] = ps
	}
	return s, nil
}

// emitCheckpoint invokes the Checkpoint callback when one is due.
func (o *optimizer) emitCheckpoint() error {
	if o.cfg.Checkpoint == nil {
		return nil
	}
	every := o.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	if o.res.Iterations%every != 0 {
		return nil
	}
	snap, err := o.snapshot()
	if err != nil {
		return err
	}
	o.cfg.Checkpoint(snap)
	return nil
}

// restoreOptimizer rebuilds a leg's optimizer from a snapshot (checked by
// nmStrategy.Validate) on a freshly constructed space. The space must be
// built from the same construction parameters (objective, noise law, seed)
// the snapshotted run used; cfg must be the run's original Config (callbacks
// may differ — they are not part of the state). The resumed run is bitwise
// identical to the uninterrupted one: every vertex's noise stream is
// fast-forwarded to its recorded position, the virtual clock and effort
// counters continue where they stopped, and future point creations draw the
// same stream seeds they would have drawn.
func restoreOptimizer(ctx context.Context, space sim.Space, snap *Snapshot, cfg Config) (*optimizer, error) {
	snapper, ok := space.(sim.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: space %T does not support snapshots", space)
	}
	if err := snapper.RestoreState(snap.Space); err != nil {
		return nil, err
	}
	o := newOptimizer(ctx, space, cfg, space.Dim())
	o.start = snap.Start
	o.level = snap.Level
	o.lastMove = snap.LastMove
	o.res.Iterations = snap.Iterations
	o.res.Moves = snap.Moves
	o.res.WaitRounds = snap.WaitRounds
	o.res.ResampleRounds = snap.ResampleRounds
	o.res.ForcedDecisions = snap.ForcedDecisions
	o.res.AdaptiveRounds = snap.AdaptiveRounds
	o.res.SpeculativeWaste = snap.SpeculativeWaste
	// Pre-adaptive snapshots (AdaptiveFloor zero) start from the config
	// floor, exactly as a fresh run would.
	o.adaptiveFloor = snap.AdaptiveFloor
	if o.adaptiveFloor <= 0 {
		o.adaptiveFloor = cfg.InitialSample
	}
	o.verts = make([]sim.Point, len(snap.Verts))
	for i, ps := range snap.Verts {
		p, err := snapper.RestorePoint(ps)
		if err != nil {
			for _, q := range o.verts[:i] {
				q.Close()
			}
			return nil, err
		}
		o.verts[i] = p
	}
	return o, nil
}

// checkSnapshot validates the invariants restoreOptimizer relies on.
func checkSnapshot(snap *Snapshot, d int) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if snap.Dim != d {
		return fmt.Errorf("core: snapshot dimension %d, space dimension %d", snap.Dim, d)
	}
	if len(snap.Verts) != d+1 {
		return fmt.Errorf("core: snapshot has %d vertices, want d+1 = %d", len(snap.Verts), d+1)
	}
	return nil
}
