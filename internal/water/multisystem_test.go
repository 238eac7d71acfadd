package water

import (
	"context"
	"math"
	"testing"

	"repro/internal/mw"
	"repro/internal/sim"
)

func TestPartialsSumToFullCost(t *testing.T) {
	for _, theta := range []Params{TIP4PParams(), {0.2, 3.0, 0.54}, thetaStar} {
		sum := 0.0
		for sys := 0; sys < NumSystems; sys++ {
			sum += PartialCostNoiseFree(sys, theta)
		}
		if full := NoiseFreeCost(theta.Vec()); math.Abs(sum-full) > 1e-12*(1+full) {
			t.Errorf("theta %+v: partials sum %v != full %v", theta, sum, full)
		}
	}
}

func TestPartialSurrogateNoiselessReport(t *testing.T) {
	theta := TIP4PParams()
	total := 0.0
	for sys := 0; sys < NumSystems; sys++ {
		p := NewPartialSurrogate(sys, 0, int64(sys))
		p.Start(theta.Vec())
		p.Sample(1)
		mean, variance, _ := p.Report()
		if variance != 0 {
			t.Fatalf("system %d noiseless variance = %v", sys, variance)
		}
		total += mean / NumSystems
	}
	if full := NoiseFreeCost(theta.Vec()); math.Abs(total-full) > 1e-12 {
		t.Fatalf("aggregated %v != full %v", total, full)
	}
}

func TestPartialSurrogateRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPartialSurrogate(NumSystems, 1, 1)
}

// newMultiSystemSpace builds the paper's water deployment for d = 3: every
// vertex slot runs NumSystems PartialSurrogate clients, client sys of worker
// rank seeded with seed+sys.
func newMultiSystemSpace(t *testing.T, noiseFactor float64, seed int64) *mw.Space {
	t.Helper()
	sp, err := mw.NewSpace(mw.SpaceConfig{
		Dim: 3,
		Ns:  NumSystems,
		NewSystem: func(rank, sys int) mw.SystemEvaluator {
			return NewPartialSurrogate(sys, noiseFactor, seed+int64(sys))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Shutdown)
	return sp
}

// sampleOne samples p once for dt and returns its estimate.
func sampleOne(t *testing.T, sp *mw.Space, p sim.Point, dt float64) sim.Estimate {
	t.Helper()
	if err := sp.SampleBatch(context.Background(), []sim.Point{p}, dt); err != nil {
		t.Fatal(err)
	}
	return p.Estimate()
}

// Through the MW space with Ns = NumSystems clients per vertex, the
// aggregated noiseless estimate must equal the full cost exactly — the exact
// structure of the paper's water deployment.
func TestMultiSystemVertexAggregation(t *testing.T) {
	sp := newMultiSystemSpace(t, 0, 100)
	theta := Params{0.17, 3.2, 0.53}
	e := sampleOne(t, sp, sp.NewPoint(theta.Vec()), 2)
	want := NoiseFreeCost(theta.Vec())
	if math.Abs(e.Mean-want) > 1e-9*(1+want) {
		t.Fatalf("vertex-aggregated cost %v, want %v", e.Mean, want)
	}
	if e.Sigma != 0 {
		t.Fatalf("noiseless aggregated sigma = %v", e.Sigma)
	}
}

// With noise, the multi-system estimate must converge to the full cost and
// its reported variance must shrink with sampling.
func TestMultiSystemVertexNoisyConvergence(t *testing.T) {
	sp := newMultiSystemSpace(t, 1, 200)
	p := sp.NewPoint(TIP4PParams().Vec())
	s1 := sampleOne(t, sp, p, 1)
	s2 := sampleOne(t, sp, p, 400)
	if s2.Sigma >= s1.Sigma {
		t.Fatalf("sigma did not shrink: %v -> %v", s1.Sigma, s2.Sigma)
	}
	want := NoiseFreeCost(TIP4PParams().Vec())
	if math.Abs(s2.Mean-want) > 6*s2.Sigma+0.05 {
		t.Fatalf("converged estimate %v too far from %v", s2.Mean, want)
	}
}

// The multi-system estimate is a pure function of the seeds: fresh
// deployments built alike report the same bits, so no client may draw its
// noise in an order that varies from run to run (such as map order).
func TestMultiSystemVertexDeterministic(t *testing.T) {
	var first uint64
	for i := range 20 {
		sp := newMultiSystemSpace(t, 1, 200)
		e := sampleOne(t, sp, sp.NewPoint(TIP4PParams().Vec()), 1)
		if bits := math.Float64bits(e.Mean); i == 0 {
			first = bits
		} else if bits != first {
			t.Fatalf("space %d: mean %v, first space %v", i, e.Mean, math.Float64frombits(first))
		}
	}
}
