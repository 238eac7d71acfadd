package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

func adaptiveSpace(workers int) *sim.LocalSpace {
	return sim.NewLocalSpace(sim.LocalConfig{
		Dim:      2,
		F:        testfunc.Sphere,
		Sigma0:   sim.ConstSigma(1),
		Seed:     17,
		Parallel: true,
		Workers:  workers,
	})
}

func adaptiveConfig() Config {
	cfg := DefaultConfig(MN)
	cfg.AdaptiveSamples = true
	cfg.AdaptiveHalfWidth = 0.3 // needs t ~ (1.96/0.3)^2 ~ 43 >> InitialSample
	cfg.MaxIterations = 6
	cfg.Tol = 0 // run every leg to the iteration cap
	return cfg
}

// TestAdaptiveFloorGrows checks the core adaptive-resampling mechanics: with
// a half-width target far below the noise at the initial allotment, fresh
// points must grow their sampling until the gate clears, and the learned
// floor must spare later points the re-growth (one big first batch, then
// cheap fresh points).
func TestAdaptiveFloorGrows(t *testing.T) {
	space := adaptiveSpace(1)
	defer space.Close()
	cfg := adaptiveConfig()
	var floors []float64
	cfg.Checkpoint = func(s *Snapshot) { floors = append(floors, s.AdaptiveFloor) }
	cfg.CheckpointEvery = 1
	res, err := Run(context.Background(), space, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{1, 1}, {2, 1}, {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptiveRounds == 0 {
		t.Error("expected adaptive growth rounds, got none")
	}
	if len(floors) == 0 || floors[0] <= cfg.InitialSample {
		t.Fatalf("adaptive floor did not grow above InitialSample: %v", floors)
	}
	want := math.Pow(1.96/cfg.AdaptiveHalfWidth, 2) // t at which 1.96*sigma0/sqrt(t) == target
	if last := floors[len(floors)-1]; last < want {
		t.Errorf("final adaptive floor %v below the half-width requirement %v", last, want)
	}
}

// TestAdaptiveRestartLegResume is the regression test for the
// mid-restart-leg snapshot bug: a snapshot taken inside a restart leg must
// record the adaptive-sampling counters (Snapshot.AdaptiveFloor,
// AdaptiveRounds), so the resumed run starts fresh points at the learned
// allotment instead of re-growing from Config.InitialSample — which would
// make every post-resume sampling schedule, and hence the whole trajectory,
// diverge from the uninterrupted run.
func TestAdaptiveRestartLegResume(t *testing.T) {
	cfg := adaptiveConfig()
	spec := RunSpec{
		Strategy: cfg.Algorithm.String(), Config: cfg,
		Initial:  [][]float64{{1, 1}, {2, 1}, {1, 2}},
		Restarts: 2, RestartScale: []float64{1},
	}

	type snap struct {
		raw []byte
		leg int
	}
	var snaps []snap
	spec.Config.Checkpoint = func(s *Snapshot) {
		leg := 0
		if s.Restart != nil {
			leg = s.Restart.Leg
		}
		if s.AdaptiveFloor <= cfg.InitialSample {
			t.Errorf("leg %d snapshot is missing the grown adaptive floor (got %v)", leg, s.AdaptiveFloor)
		}
		raw, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{raw, leg})
	}
	spec.Config.CheckpointEvery = 1

	space := adaptiveSpace(1)
	want, err := Run(context.Background(), space, spec)
	space.Close()
	if err != nil {
		t.Fatal(err)
	}

	spec.Config.Checkpoint = nil
	spec.Initial = nil
	midLeg := -1
	for i, s := range snaps {
		if s.leg >= 1 {
			midLeg = i
			break
		}
	}
	if midLeg < 0 {
		t.Fatal("no mid-restart-leg snapshot captured")
	}
	// Resume from the first snapshot of leg 1 and from the last snapshot
	// overall: both continuations must reproduce the uninterrupted result
	// bitwise.
	for _, i := range []int{midLeg, len(snaps) - 1} {
		restored := new(Snapshot)
		if err := restored.UnmarshalBinary(snaps[i].raw); err != nil {
			t.Fatal(err)
		}
		space := adaptiveSpace(4)
		spec.Resume = restored
		got, err := Run(t.Context(), space, spec)
		space.Close()
		if err != nil {
			t.Fatalf("resume from snapshot %d (leg %d): %v", i, snaps[i].leg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resume from snapshot %d (leg %d) diverged:\n got  %+v\n want %+v",
				i, snaps[i].leg, got, want)
		}
	}
}

// boundedSpace wraps a LocalSpace in the bare sim.Space interface —
// modelling a backend (mw.Space) that pins every live point to a bounded
// worker rank and cannot host the speculative candidate prefetch.
type boundedSpace struct{ sim.Space }

// TestSpeculativeRequiresLocalSpace verifies the capability gate: on a
// backend other than *sim.LocalSpace (bounded live points), Speculative must
// fail fast with a descriptive error instead of deadlocking in NewPoint.
func TestSpeculativeRequiresLocalSpace(t *testing.T) {
	inner := adaptiveSpace(1)
	defer inner.Close()
	cfg := DefaultConfig(DET)
	cfg.Speculative = true
	cfg.MaxIterations = 3
	_, err := Run(context.Background(), boundedSpace{inner}, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{1, 1}, {2, 1}, {1, 2}}})
	if err == nil || !strings.Contains(err.Error(), "requires a *sim.LocalSpace") {
		t.Fatalf("speculative run on a bounded space: err = %v, want a *sim.LocalSpace capability error", err)
	}
	// The same gate must hold on the resume path (on a space that can
	// snapshot but cannot host the prefetch).
	type boundedCkptSpace struct {
		sim.Space
		sim.Snapshotter
	}
	snap := &Snapshot{Version: SnapshotVersion, Dim: 2, Verts: make([]sim.PointState, 3)}
	if _, err := Run(context.Background(), boundedCkptSpace{inner, inner}, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Resume: snap}); err == nil || !strings.Contains(err.Error(), "requires a *sim.LocalSpace") {
		t.Fatalf("speculative resume on a bounded space: err = %v, want a *sim.LocalSpace capability error", err)
	}
}

// TestSpeculativeWasteCounted checks the speculative-mode accounting: a
// speculative run discards the unused candidates of every step and reports
// them in Result.SpeculativeWaste; the sequential driver reports zero.
func TestSpeculativeWasteCounted(t *testing.T) {
	run := func(speculative bool) *Result {
		space := adaptiveSpace(1)
		defer space.Close()
		cfg := DefaultConfig(DET)
		cfg.MaxIterations = 20
		cfg.Tol = 0
		cfg.Speculative = speculative
		res, err := Run(context.Background(), space, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{1, 1}, {2, 1}, {1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := run(false).SpeculativeWaste; got != 0 {
		t.Errorf("sequential run reports SpeculativeWaste %d, want 0", got)
	}
	spec := run(true)
	if spec.SpeculativeWaste == 0 {
		t.Error("speculative run reports zero SpeculativeWaste")
	}
	// Every step prefetches at least ref+exp+con and consumes at most one
	// (a collapse consumes the shrink set and discards all three).
	if min := spec.Iterations * 2; spec.SpeculativeWaste < min {
		t.Errorf("SpeculativeWaste %d below the structural minimum %d", spec.SpeculativeWaste, min)
	}
}
