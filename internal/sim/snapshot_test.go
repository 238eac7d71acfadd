package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/testfunc"
)

func snapCfg(seed int64) LocalConfig {
	return LocalConfig{
		Dim:      3,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(25),
		Seed:     seed,
		Parallel: true,
	}
}

// TestPointExportRestore checks that a restored point continues to observe
// exactly the noise sequence the original would have, and that the export
// itself does not perturb the original's stream.
func TestPointExportRestore(t *testing.T) {
	orig := NewLocalSpace(snapCfg(7))
	p := orig.NewPoint([]float64{0.5, -1, 2})
	for i := 0; i < 5; i++ {
		mustSample(t, orig, []Point{p}, 0.7)
	}

	st, err := orig.ExportPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	spaceSt := orig.ExportState()

	// Fresh "process": a new space from the same config.
	fresh := NewLocalSpace(snapCfg(7))
	if err := fresh.RestoreState(spaceSt); err != nil {
		t.Fatal(err)
	}
	q, err := fresh.RestorePoint(st)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := q.Estimate(), p.Estimate(); got != want {
		t.Fatalf("restored estimate %+v != original %+v", got, want)
	}

	// Future draws must match bitwise, increment by increment.
	for i := 0; i < 8; i++ {
		mustSample(t, orig, []Point{p}, 1.3)
		mustSample(t, fresh, []Point{q}, 1.3)
		if got, want := q.Estimate(), p.Estimate(); got != want {
			t.Fatalf("post-restore increment %d: %+v != %+v", i, got, want)
		}
	}
	if fresh.Clock().Now() != orig.Clock().Now() {
		t.Fatalf("clock diverged: %v != %v", fresh.Clock().Now(), orig.Clock().Now())
	}
}

// TestSigmaEstimatedMatchesWelford: under SigmaEstimated a point reports, bit
// for bit, what a reference stats.Welford over sigma0 times the point's own
// normal draws gives (its standard deviation over sqrt(t)), before a
// snapshot round trip and after it.
func TestSigmaEstimatedMatchesWelford(t *testing.T) {
	const sigma0 = 25 // snapCfg's
	cfg := snapCfg(11)
	cfg.Mode = SigmaEstimated
	orig := NewLocalSpace(cfg)
	p := orig.NewPoint([]float64{1, 2, -1})
	draws := rand.New(noise.NewSource(sched.StreamSeed(cfg.Seed, 0))) // the first point's stream
	var ref stats.Welford
	elapsed := 0.0
	step := func(dt float64) {
		ref.Add(sigma0 * draws.NormFloat64())
		elapsed += dt
	}
	check := func(pt Point, when string) {
		t.Helper()
		want := sigma0 / math.Sqrt(elapsed) // SigmaEst's fallback below two increments
		if ref.N() >= 2 {
			want = ref.StdDev() / math.Sqrt(elapsed)
		}
		if got := pt.Estimate(); math.Float64bits(got.Sigma) != math.Float64bits(want) || got.Time != elapsed {
			t.Fatalf("%s, %d increments: sigma %v at t=%v, reference Welford %v at t=%v",
				when, ref.N(), got.Sigma, got.Time, want, elapsed)
		}
	}
	for i := 0; i < 6; i++ {
		dt := 0.25 * float64(i+1)
		mustSample(t, orig, []Point{p}, dt)
		step(dt)
		check(p, "before the snapshot")
	}

	st, err := orig.ExportPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewLocalSpace(cfg)
	if err := fresh.RestoreState(orig.ExportState()); err != nil {
		t.Fatal(err)
	}
	q, err := fresh.RestorePoint(st)
	if err != nil {
		t.Fatal(err)
	}
	check(q, "restored")
	for i := 0; i < 6; i++ {
		mustSample(t, orig, []Point{p}, 0.5)
		mustSample(t, fresh, []Point{q}, 0.5)
		step(0.5)
		check(p, "original after the snapshot")
		check(q, "restored after the snapshot")
	}
}

// TestRestoreStateNextStream checks that points created after a resume use
// the same streams they would have uninterrupted.
func TestRestoreStateNextStream(t *testing.T) {
	orig := NewLocalSpace(snapCfg(3))
	a := orig.NewPoint([]float64{1, 2, 3})
	_ = a
	st := orig.ExportState()
	later := orig.NewPoint([]float64{0, 0, 0})
	mustSample(t, orig, []Point{later}, 1)

	fresh := NewLocalSpace(snapCfg(3))
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	resumedLater := fresh.NewPoint([]float64{0, 0, 0})
	mustSample(t, fresh, []Point{resumedLater}, 1)
	if got, want := resumedLater.Estimate(), later.Estimate(); got != want {
		t.Fatalf("next-stream point diverged: %+v != %+v", got, want)
	}
}

func TestExportPointErrors(t *testing.T) {
	s := NewLocalSpace(snapCfg(1))
	p := s.NewPoint([]float64{0, 0, 0})
	p.Close()
	if _, err := s.ExportPoint(p); err == nil {
		t.Fatal("ExportPoint on closed point did not error")
	}
	if _, err := s.RestorePoint(PointState{X: []float64{1}}); err == nil {
		t.Fatal("RestorePoint with wrong dimension did not error")
	}
}
