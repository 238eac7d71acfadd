package mw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// newSpace builds a Dim-dimensional space with ns clients per vertex slot.
func newSpace(t *testing.T, dim, ns int, newSystem func(rank, sys int) SystemEvaluator) *Space {
	t.Helper()
	sp, err := NewSpace(SpaceConfig{Dim: dim, Ns: ns, NewSystem: newSystem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Shutdown)
	return sp
}

// sampleOne samples p once for dt and returns its estimate.
func sampleOne(t *testing.T, sp *Space, p sim.Point, dt float64) sim.Estimate {
	t.Helper()
	if err := sp.SampleBatch(context.Background(), []sim.Point{p}, dt); err != nil {
		t.Fatal(err)
	}
	return p.Estimate()
}

func TestVertexPipelineAggregation(t *testing.T) {
	// Two clients with noiseless objectives f and f+2: the aggregated mean
	// must be f+1 and the variance 0.
	sp := newSpace(t, 2, 2, func(rank, sys int) SystemEvaluator {
		offset := float64(2 * sys)
		return &FuncSystem{
			F:   func(x []float64) float64 { return testfunc.Sphere(x) + offset },
			Rng: rand.New(rand.NewSource(int64(sys))),
		}
	})
	p := sp.NewPoint([]float64{1, 2})
	e := sampleOne(t, sp, p, 4)
	want := testfunc.Sphere([]float64{1, 2}) + 1
	if math.Abs(e.Mean-want) > 1e-12 {
		t.Fatalf("aggregated mean = %v, want %v", e.Mean, want)
	}
	if e.Sigma != 0 {
		t.Fatalf("noiseless sigma = %v", e.Sigma)
	}
	if e.Time != 4 {
		t.Fatalf("time = %v, want 4", e.Time)
	}
	p.Close()
}

func TestVertexPipelineNoiseVarianceScalesWithNs(t *testing.T) {
	// With Ns independent clients at sigma0 each, the aggregated variance
	// after time t is sigma0^2/(Ns*t).
	const sigma0 = 10.0
	const ns = 4
	sp := newSpace(t, 2, ns, func(rank, sys int) SystemEvaluator {
		return &FuncSystem{
			F:      testfunc.Sphere,
			Sigma0: func([]float64) float64 { return sigma0 },
			Rng:    rand.New(rand.NewSource(int64(100 + sys))),
		}
	})
	e := sampleOne(t, sp, sp.NewPoint([]float64{0, 0}), 25)
	want := sigma0 * sigma0 / (ns * 25.0)
	if math.Abs(e.Sigma*e.Sigma-want) > 1e-9 {
		t.Fatalf("variance = %v, want %v", e.Sigma*e.Sigma, want)
	}
}

func TestExpectedProcessesFormula(t *testing.T) {
	// Table 3.3's rows: d=20 -> 70, d=50 -> 160, d=100 -> 310 with Ns=1.
	cases := []struct{ d, ns, want int }{
		{20, 1, 70},
		{50, 1, 160},
		{100, 1, 310},
	}
	for _, c := range cases {
		if got := ExpectedProcesses(c.d, c.ns); got != c.want {
			t.Errorf("ExpectedProcesses(%d, %d) = %d, want %d", c.d, c.ns, got, c.want)
		}
	}
}

func TestProcessAccountingMatchesFormula(t *testing.T) {
	sp, err := NewSpace(SpaceConfig{
		Dim: 5,
		Ns:  2,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{F: testfunc.Sphere, Rng: rand.New(rand.NewSource(int64(rank*10 + sys)))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := sp.Processes()
	if want := (ProcessCounts{Masters: 1, Workers: 8, Servers: 8, Clients: 16}); got != want {
		t.Fatalf("processes = %+v, want %+v", got, want)
	}
	if got.Total() != ExpectedProcesses(5, 2) {
		t.Fatalf("live processes = %d, want %d", got.Total(), ExpectedProcesses(5, 2))
	}
	sp.Shutdown()
	if got := sp.Processes().Total(); got != 0 {
		t.Fatalf("after shutdown, live processes = %d, want 0", got)
	}
}

func TestSpaceSamplingMatchesLocalSemantics(t *testing.T) {
	sp, err := NewSpace(SpaceConfig{
		Dim: 2,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{F: testfunc.Sphere, Rng: rand.New(rand.NewSource(int64(rank)))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Shutdown()

	p1 := sp.NewPoint([]float64{1, 1})
	p2 := sp.NewPoint([]float64{2, 2})
	if err := sp.SampleBatch(context.Background(), []sim.Point{p1, p2}, 3); err != nil {
		t.Fatal(err)
	}

	if got := sp.Clock().Now(); got != 3 {
		t.Fatalf("parallel clock = %v, want 3", got)
	}
	if e := p1.Estimate(); e.Mean != 2 || e.Time != 3 {
		t.Fatalf("p1 estimate = %+v", e)
	}
	if e := p2.Estimate(); e.Mean != 8 {
		t.Fatalf("p2 estimate = %+v", e)
	}
	if got := sp.Evaluations(); got != 2 {
		t.Fatalf("evaluations = %d, want 2", got)
	}
	p1.Close()
	p2.Close()
}

func TestSpaceSlotReuseAfterClose(t *testing.T) {
	// Dim=1 gives 4 workers; opening and closing 10 points sequentially
	// must never block.
	sp, err := NewSpace(SpaceConfig{
		Dim: 1,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{
				F:   func(x []float64) float64 { return x[0] * x[0] },
				Rng: rand.New(rand.NewSource(int64(rank))),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Shutdown()
	for i := 0; i < 10; i++ {
		p := sp.NewPoint([]float64{float64(i)})
		if err := sp.SampleBatch(context.Background(), []sim.Point{p}, 1); err != nil {
			t.Fatal(err)
		}
		if e := p.Estimate(); e.Mean != float64(i*i) {
			t.Fatalf("point %d mean = %v", i, e.Mean)
		}
		p.Close()
	}
}

// stopCounter is a noiseless client that counts its Stop calls.
type stopCounter struct {
	FuncSystem
	stops *atomic.Int64
}

func (c *stopCounter) Stop() {
	c.stops.Add(1)
	c.FuncSystem.Stop()
}

// Shutdown stops the clients of the points still live, once; a point closed
// afterwards stops nothing again, and the space then refuses new work.
func TestSpaceShutdown(t *testing.T) {
	var stops atomic.Int64
	sp := newSpace(t, 1, 2, func(rank, sys int) SystemEvaluator {
		return &stopCounter{FuncSystem: FuncSystem{F: testfunc.Sphere}, stops: &stops}
	})
	closed := sp.NewPoint([]float64{1})
	closed.Close()
	live := sp.NewPoint([]float64{2})
	if got := stops.Load(); got != 2 {
		t.Fatalf("after one Close, %d client stops, want 2", got)
	}
	sp.Shutdown()
	sp.Shutdown()
	if err := sp.SampleBatch(context.Background(), []sim.Point{live}, 1); err == nil {
		t.Fatal("SampleBatch after Shutdown succeeded")
	}
	live.Close()
	if got := stops.Load(); got != 4 {
		t.Fatalf("after Shutdown, %d client stops, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPoint after Shutdown did not panic")
		}
	}()
	sp.NewPoint([]float64{3})
}

// NewPoint refuses a point of the wrong dimension.
func TestNewPointDimensionMismatchPanics(t *testing.T) {
	sp := newSpace(t, 2, 1, func(rank, sys int) SystemEvaluator {
		return &FuncSystem{F: testfunc.Sphere}
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "dimension") {
			t.Fatalf("NewPoint with 1 value on a 2-d space: panic %v, want a dimension mismatch", r)
		}
	}()
	sp.NewPoint([]float64{1})
}
