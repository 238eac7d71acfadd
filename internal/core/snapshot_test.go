package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

func snapSpace(seed int64) *sim.LocalSpace {
	return sim.NewLocalSpace(sim.LocalConfig{
		Dim:      3,
		F:        testfunc.Rosenbrock,
		Sigma0:   sim.ConstSigma(50),
		Seed:     seed,
		Parallel: true,
	})
}

func snapInitial() [][]float64 {
	return [][]float64{{-2, 1, 3}, {2, -1, 0}, {0, 3, -2}, {1, 1, 1}}
}

// collectSnapshots runs spec with checkpointing, keeping the JSON
// serialization of every snapshot (exercising the same round-trip the durable
// checkpoint store performs).
func collectSnapshots(t *testing.T, spec RunSpec, every int) (*Result, [][]byte) {
	t.Helper()
	var blobs [][]byte
	spec.Config.CheckpointEvery = every
	spec.Config.Checkpoint = func(s *Snapshot) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal snapshot: %v", err)
		}
		blobs = append(blobs, b)
	}
	res, err := Run(context.Background(), snapSpace(11), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, blobs
}

// TestSnapshotResumeBitwise is the acceptance-criterion table for the one
// leg driver: for every decision policy, with zero and with two restart
// legs, a fresh run and a run resumed on a fresh space from every snapshot
// taken along the way all go through Run and return the same Result
// bitwise. A fresh run draws its simplex from the box exactly as an explicit
// UniformSimplex start would; a plain run ignores the restart parameters and
// its snapshots carry no leg state (so plain jobs' store records stay
// byte-identical); with restart legs, the snapshots carry the leg state and
// an out-of-range ScaleDecay is rejected before any sampling.
func TestSnapshotResumeBitwise(t *testing.T) {
	rows := []struct {
		name     string
		restarts int
		resumed  bool
	}{
		{"restarts=0/fresh", 0, false},
		{"restarts=0/resumed", 0, true},
		{"restarts=2/fresh", 2, false},
		{"restarts=2/resumed", 2, true},
	}
	for _, alg := range []Algorithm{DET, MN, PC, PCMN, AndersonNM} {
		t.Run(alg.String(), func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					cfg := DefaultConfig(alg)
					cfg.MaxIterations = 40
					cfg.MaxWalltime = 1e7
					cfg.Tol = 1e-9
					spec := RunSpec{
						Strategy: alg.String(), Config: cfg,
						Seed: 11, Lo: -4, Hi: 4, HasBox: true,
						Restarts: row.restarts, RestartScale: []float64{0.5},
					}
					uninterrupted, blobs := collectSnapshots(t, spec, 7)
					if !row.resumed {
						checkFreshRow(t, spec, uninterrupted)
						return
					}
					if len(blobs) == 0 {
						t.Fatal("no snapshots were taken")
					}
					sawLater := false
					for i, blob := range blobs {
						var snap Snapshot
						if err := json.Unmarshal(blob, &snap); err != nil {
							t.Fatalf("unmarshal snapshot %d: %v", i, err)
						}
						switch {
						case row.restarts == 0 && snap.Restart != nil:
							t.Fatalf("snapshot %d of a plain run carries restart state %+v", i, snap.Restart)
						case row.restarts > 0 && snap.Restart == nil:
							t.Fatalf("snapshot %d from a restart run is missing the leg state", i)
						case row.restarts > 0 && snap.Restart.Leg > 0:
							sawLater = true
						}
						// Fresh process-like state: a brand-new space from the
						// same construction parameters, and the original spec
						// without the checkpoint callback.
						resume := spec
						resume.Resume = &snap
						resumed, err := Run(context.Background(), snapSpace(11), resume)
						if err != nil {
							t.Fatalf("resume from snapshot %d (iter %d): %v", i, snap.Iterations, err)
						}
						if !reflect.DeepEqual(resumed, uninterrupted) {
							t.Fatalf("resume from snapshot %d (iter %d) diverged:\nresumed       %+v\nuninterrupted %+v",
								i, snap.Iterations, resumed, uninterrupted)
						}
					}
					if row.restarts > 0 && !sawLater {
						t.Fatal("no snapshot was taken inside a restart leg; widen the test")
					}
				})
			}
		})
	}
}

// checkFreshRow holds the fresh-start assertions of TestSnapshotResumeBitwise.
func checkFreshRow(t *testing.T, spec RunSpec, uninterrupted *Result) {
	t.Helper()
	run := func(spec RunSpec) (*Result, *sim.LocalSpace, error) {
		sp := snapSpace(11)
		res, err := Run(context.Background(), sp, spec)
		return res, sp, err
	}
	explicit := spec
	explicit.HasBox = false
	explicit.Initial = UniformSimplex(3, spec.Lo, spec.Hi, rand.New(rand.NewSource(spec.Seed)))
	if got, _, err := run(explicit); err != nil || !reflect.DeepEqual(got, uninterrupted) {
		t.Fatalf("explicit initial simplex differs from the box draw (err %v):\nexplicit %+v\nbox      %+v",
			err, got, uninterrupted)
	}
	if spec.Restarts == 0 {
		// Without restart legs the restart parameters are inert, an
		// out-of-range decay included.
		inert := spec
		inert.RestartScale, inert.ScaleDecay = nil, 2
		if got, _, err := run(inert); err != nil || !reflect.DeepEqual(got, uninterrupted) {
			t.Fatalf("restart parameters changed a zero-restart run (err %v):\nwith    %+v\nwithout %+v",
				err, uninterrupted, got)
		}
		return
	}
	if uninterrupted.Iterations <= spec.Config.MaxIterations {
		t.Fatalf("Iterations = %d: restart legs not accumulated", uninterrupted.Iterations)
	}
	for _, decay := range []float64{-0.5, 1.5, math.NaN()} {
		bad := spec
		bad.ScaleDecay = decay
		_, sp, err := run(bad)
		if err == nil {
			t.Errorf("ScaleDecay %v accepted with %d restarts", decay, spec.Restarts)
		}
		if n := sp.Evaluations(); n != 0 {
			t.Errorf("ScaleDecay %v: rejected spec sampled %d times first", decay, n)
		}
	}
}

// TestCheckpointingDoesNotPerturb checks that enabling checkpoints changes
// nothing: snapshot export reads no randomness.
func TestCheckpointingDoesNotPerturb(t *testing.T) {
	cfg := DefaultConfig(PC)
	cfg.MaxIterations = 30
	cfg.MaxWalltime = 1e7
	cfg.Tol = 1e-9

	spec := RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: snapInitial()}
	withCkpt, _ := collectSnapshots(t, spec, 5)
	plain, err := Run(context.Background(), snapSpace(11), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withCkpt, plain) {
		t.Fatalf("checkpointing perturbed the run:\nwith    %+v\nwithout %+v", withCkpt, plain)
	}
}

// TestSnapshotJSONRoundTrip checks the serialized form is lossless.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig(MN)
	cfg.MaxIterations = 12
	cfg.MaxWalltime = 1e7
	var snaps []*Snapshot
	cfg.CheckpointEvery = 4
	cfg.Checkpoint = func(s *Snapshot) {
		// Deep-copy via JSON, as the durable store would.
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var c Snapshot
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&c, s) {
			t.Fatalf("JSON round-trip lost state:\nin  %+v\nout %+v", s, &c)
		}
		snaps = append(snaps, &c)
	}
	if _, err := Run(context.Background(), snapSpace(5), RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: snapInitial()}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots were taken")
	}
}

// TestResumeRejectsBadSnapshots covers the resume-time validation.
func TestResumeRejectsBadSnapshots(t *testing.T) {
	resume := func(snap *Snapshot, restarts int) error {
		_, err := Run(context.Background(), snapSpace(1), RunSpec{
			Strategy: "det", Config: DefaultConfig(DET), Resume: snap, Restarts: restarts,
		})
		return err
	}
	if err := resume(&Snapshot{Version: 99, Dim: 3}, 0); err == nil {
		t.Fatal("wrong version accepted")
	}
	if err := resume(&Snapshot{Version: SnapshotVersion, Dim: 2}, 0); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if err := resume(&Snapshot{Version: SnapshotVersion, Dim: 3}, 0); err == nil {
		t.Fatal("wrong vertex count accepted")
	}

	// A restart snapshot with a corrupted scale must be rejected, not
	// silently resumed with the wrong simplex edge lengths.
	cfg := DefaultConfig(DET)
	var snap *Snapshot
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(s *Snapshot) {
		if snap == nil {
			c := *s
			snap = &c
		}
	}
	cfg.MaxIterations = 3
	cfg.MaxWalltime = 1e7
	if _, err := Run(context.Background(), snapSpace(1), RunSpec{
		Strategy: "det", Config: cfg, Initial: snapInitial(), Restarts: 1,
	}); err != nil {
		t.Fatal(err)
	}
	snap.Restart.Scale = snap.Restart.Scale[:2]
	if err := resume(snap, 1); err == nil {
		t.Fatal("corrupted restart scale accepted")
	}
}
