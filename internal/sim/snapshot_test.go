package sim

import (
	"testing"

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
