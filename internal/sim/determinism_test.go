package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/testfunc"
)

// runBatches drives a fixed sequence of batch sampling through a space with
// the given worker count and returns every point's final estimate.
func runBatches(t *testing.T, workers int) []Estimate {
	t.Helper()
	s := NewLocalSpace(LocalConfig{
		Dim:      3,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(25),
		Seed:     7,
		Parallel: true,
		Workers:  workers,
	})
	defer s.Close()
	return sampleSequence(t, s)
}

// sampleSequence is the batch sequence itself, on any space built like
// runBatches builds its own.
func sampleSequence(t *testing.T, s *LocalSpace) []Estimate {
	pts := make([]Point, 12)
	for i := range pts {
		pts[i] = s.NewPoint([]float64{float64(i), float64(i % 3), 1})
	}
	dt := 0.5
	for round := 0; round < 6; round++ {
		mustSample(t, s, pts, dt)
		dt *= 2
	}
	// A sub-batch, as the optimizer issues for trial points.
	mustSample(t, s, pts[:4], 1.0)
	out := make([]Estimate, len(pts))
	for i, p := range pts {
		out[i] = p.Estimate()
	}
	return out
}

// TestSerialConcurrentIdentical is the determinism contract of the sched
// refactor: per-point noise streams make the sampled values a pure function
// of (seed, point index, sampling history), so the worker count must not
// change a single bit of any estimate.
func TestSerialConcurrentIdentical(t *testing.T) {
	serial := runBatches(t, 1)
	for _, workers := range []int{2, 4, 8} {
		conc := runBatches(t, workers)
		if !reflect.DeepEqual(serial, conc) {
			t.Fatalf("estimates differ between workers=1 and workers=%d:\n%v\nvs\n%v", workers, serial, conc)
		}
	}
}

// TestConcurrentSampleRace is the -race regression test: a large batch
// sampled through many workers, repeatedly, with live Estimate reads between
// batches. Any shared-RNG or counter race surfaces under -race.
func TestConcurrentSampleRace(t *testing.T) {
	s := NewLocalSpace(LocalConfig{
		Dim:      2,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(5),
		Seed:     11,
		Parallel: true,
		Workers:  8,
	})
	defer s.Close()
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = s.NewPoint([]float64{float64(i % 5), float64(i % 7)})
	}
	for round := 0; round < 20; round++ {
		mustSample(t, s, pts, 0.25)
		for _, p := range pts {
			if e := p.Estimate(); math.IsNaN(e.Mean) {
				t.Fatal("NaN estimate")
			}
		}
	}
	if got, want := s.Evaluations(), int64(20*64); got != want {
		t.Fatalf("Evaluations = %d, want %d", got, want)
	}
}

// TestSampleBatchCancel verifies the context path: a canceled context stops
// the batch, reports the cancellation, and leaves the wall clock alone.
func TestSampleBatchCancel(t *testing.T) {
	s := NewLocalSpace(LocalConfig{
		Dim:      2,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(1),
		Seed:     1,
		Parallel: true,
		Workers:  2,
	})
	defer s.Close()
	pts := []Point{s.NewPoint([]float64{0, 0}), s.NewPoint([]float64{1, 1})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.SampleBatch(ctx, pts, 1); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if now := s.Clock().Now(); now != 0 {
		t.Fatalf("clock advanced to %v on canceled batch", now)
	}
}

// TestSampleCostRuns verifies the per-increment cost hook fires once per
// point per batch, concurrently safe.
func TestSampleCostRuns(t *testing.T) {
	s := NewLocalSpace(LocalConfig{
		Dim:    2,
		F:      testfunc.Rosenbrock,
		Sigma0: ConstSigma(1),
		Seed:   1,
		SampleCost: func(x []float64, dt float64) {
			if len(x) != 2 || dt != 0.5 {
				t.Errorf("SampleCost(%v, %v)", x, dt)
			}
		},
		Parallel: true,
		Workers:  4,
	})
	defer s.Close()
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = s.NewPoint([]float64{1, 2})
	}
	mustSample(t, s, pts, 0.5)
	if got := s.Evaluations(); got != 8 {
		t.Fatalf("Evaluations = %d, want 8", got)
	}
}

// TestSampleBatchAfterCloseFails pins the use-after-Close contract: a space
// whose private pool was released must fail loudly, not silently skip the
// batch (which would freeze the clock and stall wait loops).
func TestSampleBatchAfterCloseFails(t *testing.T) {
	s := NewLocalSpace(LocalConfig{
		Dim:      2,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(1),
		Seed:     1,
		Parallel: true,
		Workers:  2,
	})
	pts := []Point{s.NewPoint([]float64{0, 0}), s.NewPoint([]float64{1, 1})}
	mustSample(t, s, pts, 1) // start the pool
	s.Close()
	if err := s.SampleBatch(context.Background(), pts, 1); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("SampleBatch on a closed space: err = %v, want sched.ErrClosed", err)
	}
	if now := s.Clock().Now(); now != 1 {
		t.Fatalf("clock = %v after the refused batch, want 1", now)
	}
}
