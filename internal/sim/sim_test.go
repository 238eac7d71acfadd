package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/testfunc"
)

func newRosenSpace(parallel bool, sigma float64) *LocalSpace {
	return NewLocalSpace(LocalConfig{
		Dim:      3,
		F:        testfunc.Rosenbrock,
		Sigma0:   ConstSigma(sigma),
		Seed:     1,
		Parallel: parallel,
	})
}

// mustSample samples pts on s for dt and fails the test on an error.
func mustSample(tb testing.TB, s Space, pts []Point, dt float64) {
	tb.Helper()
	if err := s.SampleBatch(context.Background(), pts, dt); err != nil {
		tb.Fatal(err)
	}
}

func TestNewPointCopiesX(t *testing.T) {
	s := newRosenSpace(false, 0)
	x := []float64{1, 2, 3}
	p := s.NewPoint(x)
	x[0] = 99
	if p.X()[0] != 1 {
		t.Fatal("NewPoint did not copy coordinates")
	}
}

func TestNoiselessEstimate(t *testing.T) {
	s := newRosenSpace(false, 0)
	p := s.NewPoint([]float64{0, 0, 0})
	mustSample(t, s, []Point{p}, 1)
	est := p.Estimate()
	want := testfunc.Rosenbrock([]float64{0, 0, 0})
	if est.Mean != want {
		t.Fatalf("Mean = %v, want %v", est.Mean, want)
	}
	if est.Sigma != 0 {
		t.Fatalf("Sigma = %v, want 0", est.Sigma)
	}
}

func TestSerialClockAdvance(t *testing.T) {
	s := newRosenSpace(false, 1)
	p1 := s.NewPoint([]float64{0, 0, 0})
	p2 := s.NewPoint([]float64{1, 1, 1})
	mustSample(t, s, []Point{p1, p2}, 2.0)
	if got := s.Clock().Now(); got != 4.0 {
		t.Fatalf("serial clock = %v, want 4.0", got)
	}
}

func TestParallelClockAdvance(t *testing.T) {
	s := newRosenSpace(true, 1)
	p1 := s.NewPoint([]float64{0, 0, 0})
	p2 := s.NewPoint([]float64{1, 1, 1})
	p3 := s.NewPoint([]float64{2, 0, 1})
	mustSample(t, s, []Point{p1, p2, p3}, 2.0)
	if got := s.Clock().Now(); got != 2.0 {
		t.Fatalf("parallel clock = %v, want 2.0", got)
	}
	for i, p := range []Point{p1, p2, p3} {
		if p.Estimate().Time != 2.0 {
			t.Fatalf("point %d sampling time = %v, want 2.0", i, p.Estimate().Time)
		}
	}
}

func TestSampleBatchEmptyNoAdvance(t *testing.T) {
	s := newRosenSpace(true, 1)
	mustSample(t, s, nil, 5)
	if got := s.Clock().Now(); got != 0 {
		t.Fatalf("clock moved on empty batch: %v", got)
	}
}

func TestEvaluationsCount(t *testing.T) {
	s := newRosenSpace(true, 1)
	p1 := s.NewPoint([]float64{0, 0, 0})
	p2 := s.NewPoint([]float64{1, 1, 1})
	mustSample(t, s, []Point{p1, p2}, 1)
	mustSample(t, s, []Point{p1}, 1)
	if got := s.Evaluations(); got != 3 {
		t.Fatalf("Evaluations = %v, want 3", got)
	}
}

func TestSigmaShrinksWithSampling(t *testing.T) {
	s := newRosenSpace(false, 100)
	p := s.NewPoint([]float64{0, 0, 0})
	mustSample(t, s, []Point{p}, 1)
	s1 := p.Estimate().Sigma
	mustSample(t, s, []Point{p}, 3) // t = 4
	s2 := p.Estimate().Sigma
	if math.Abs(s1-100) > 1e-9 || math.Abs(s2-50) > 1e-9 {
		t.Fatalf("sigma progression = %v, %v; want 100, 50", s1, s2)
	}
}

func TestClosedPointPanics(t *testing.T) {
	s := newRosenSpace(false, 1)
	p := s.NewPoint([]float64{0, 0, 0})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("sampling a closed point did not panic")
		}
	}()
	mustSample(t, s, []Point{p}, 1)
}

func TestDimMismatchPanics(t *testing.T) {
	s := newRosenSpace(false, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("NewPoint with wrong dim did not panic")
		}
	}()
	s.NewPoint([]float64{1, 2})
}

func TestUnderlyingAccessor(t *testing.T) {
	s := newRosenSpace(false, 50)
	p := s.NewPoint([]float64{2, 2, 2})
	f, ok := Underlying(p)
	if !ok {
		t.Fatal("Underlying not available on localPoint")
	}
	if want := testfunc.Rosenbrock([]float64{2, 2, 2}); f != want {
		t.Fatalf("Underlying = %v, want %v", f, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		s := newRosenSpace(true, 10)
		p := s.NewPoint([]float64{0, 1, 2})
		for i := 0; i < 20; i++ {
			mustSample(t, s, []Point{p}, 0.5)
		}
		return p.Estimate().Mean
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
