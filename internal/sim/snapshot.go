package sim

import (
	"errors"
	"fmt"

	"repro/internal/noise"
)

// This file is the serialization face of the sampling layer: everything a
// checkpoint needs to rebuild a LocalSpace and its live points bitwise in a
// fresh process. The design leans on the same property that makes concurrent
// sampling deterministic — every point's noise is a pure function of
// (space seed, stream index, sampling history) — so a snapshot only has to
// record identities and accumulator numbers, never raw RNG internals: the RNG
// is reconstructed from its seed and fast-forwarded by the recorded draw
// count (noise.Stream.Restore).

// SpaceState is the serializable state of a LocalSpace: the virtual clock,
// the stream allocation cursor, and the evaluation counter. The objective
// function, noise law and seed are not part of the state — a restored space
// must be built from the same LocalConfig the original had (they are code,
// not data; the jobs layer reconstructs them from the job spec).
type SpaceState struct {
	// Clock is the virtual wall-clock reading.
	Clock float64 `json:"clock"`
	// NextStream is the next stream index NewPoint will allocate. Restoring
	// it guarantees points created after a resume draw from the same streams
	// they would have drawn from uninterrupted.
	NextStream int64 `json:"next_stream"`
	// Evals is the cumulative sampling-increment count.
	Evals int64 `json:"evals"`
}

// PointState is the serializable state of one live point: its coordinates,
// the index of its private noise stream, and the accumulator state. The
// noise-free value and sigma0 are recomputed from the coordinates on restore.
type PointState struct {
	// X holds the point's coordinates.
	X []float64 `json:"x"`
	// Stream is the point's stream index (seed = StreamSeed(spaceSeed, Stream)).
	Stream int64 `json:"stream"`
	// Noise is the accumulated sampling state.
	Noise noise.State `json:"noise"`
}

// Snapshotter is the optional checkpointing face of a Space. LocalSpace
// implements it; the mw backend does not (its points are live worker
// assignments, which the paper's own restart strategy rebuilds from scratch).
type Snapshotter interface {
	// ExportState snapshots the space-level counters.
	ExportState() SpaceState
	// RestoreState overwrites the space-level counters. It must be called on
	// a fresh space (no points created yet) built from the original config.
	RestoreState(SpaceState) error
	// ExportPoint snapshots one live point. It reads only; the point's RNG
	// position is unchanged.
	ExportPoint(Point) (PointState, error)
	// RestorePoint reconstructs a live point from its snapshot, replaying
	// the recorded number of noise draws so the next Sample observes exactly
	// what the original point would have observed.
	RestorePoint(PointState) (Point, error)
}

// ExportState implements Snapshotter.
func (s *LocalSpace) ExportState() SpaceState {
	s.mu.Lock()
	next := s.nextStream
	s.mu.Unlock()
	return SpaceState{Clock: s.clock.Now(), NextStream: next, Evals: s.evals.Load()}
}

// RestoreState implements Snapshotter.
func (s *LocalSpace) RestoreState(st SpaceState) error {
	if st.NextStream < 0 || st.Clock < 0 || st.Evals < 0 {
		return fmt.Errorf("sim: invalid space state %+v", st)
	}
	s.mu.Lock()
	s.nextStream = st.NextStream
	s.mu.Unlock()
	s.clock.Reset()
	s.clock.Advance(st.Clock)
	s.evals.Store(st.Evals)
	return nil
}

// ExportPoint implements Snapshotter.
func (s *LocalSpace) ExportPoint(p Point) (PointState, error) {
	h, ok := p.(*localPoint)
	if !ok {
		return PointState{}, fmt.Errorf("sim: ExportPoint received a foreign Point %T", p)
	}
	if h.closed() {
		return PointState{}, fmt.Errorf("sim: ExportPoint on closed point")
	}
	b := h.b
	return PointState{
		X:      append([]float64(nil), b.x...),
		Stream: b.streamIdx,
		Noise:  b.stream.State(),
	}, nil
}

// ErrRetiredEstimatedSigma refuses a point state written by a space that
// reported Welford-estimated sigmas, a mode since retired: resumed under the
// true sigma it would continue a different run.
var ErrRetiredEstimatedSigma = errors.New("sim: point state written under the retired estimated-sigma mode")

// RestorePoint implements Snapshotter.
func (s *LocalSpace) RestorePoint(st PointState) (Point, error) {
	if len(st.X) != s.cfg.Dim {
		return nil, fmt.Errorf("sim: RestorePoint dimension %d, want %d", len(st.X), s.cfg.Dim)
	}
	if st.Stream < 0 || st.Noise.N < 0 {
		return nil, fmt.Errorf("sim: invalid point state %+v", st)
	}
	if st.Noise.ZCount != 0 {
		return nil, fmt.Errorf("%w (stream %d, z_count %d)", ErrRetiredEstimatedSigma, st.Stream, st.Noise.ZCount)
	}
	s.mu.Lock()
	b := s.takeLocked()
	s.mu.Unlock()
	p := s.issue(b, st.X, st.Stream)
	b.stream.Restore(st.Noise)
	mPoints.Inc()
	return p, nil
}
