package conformance

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mw"
	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// contractDt is the increment every contract batch samples.
const contractDt = 0.5

// spaceBackend builds one sampling backend for the contract table.
type spaceBackend struct {
	name string
	// perPoint is what one point's increment adds to Evaluations: 1 for a
	// LocalSpace, Ns for an MW space (each simulation client counts).
	perPoint int64
	build    func(t *testing.T) sim.Space
}

// spaceBackends are the sim.Space implementations, LocalSpace in three
// configurations and mw.Space (internal/optroot runs the same rows over
// mw.Space with its $OPTROOT script-batch evaluator, which needs a script
// tree).
func spaceBackends() []spaceBackend {
	local := func(cfg sim.LocalConfig) func(t *testing.T) sim.Space {
		return func(t *testing.T) sim.Space {
			cfg.Dim, cfg.F, cfg.Sigma0, cfg.Seed, cfg.Parallel = 2, testfunc.Sphere, sim.ConstSigma(1), defaultSeed, true
			s := sim.NewLocalSpace(cfg)
			t.Cleanup(s.Close)
			return s
		}
	}
	const ns = 2
	return []spaceBackend{
		{"local-cost-free", 1, local(sim.LocalConfig{})},
		{"local-costed-pool", 1, func(t *testing.T) sim.Space {
			pool := sched.New(sched.Config{Workers: 2})
			t.Cleanup(pool.Close)
			return local(sim.LocalConfig{Pool: pool, SampleCost: func([]float64, float64) {}})(t)
		}},
		{"local-fleet", 1, func(t *testing.T) sim.Space {
			return local(sim.LocalConfig{Fleet: newFleet(t, 1, 2), FleetObjective: "sphere"})(t)
		}},
		{"mw", ns, func(t *testing.T) sim.Space {
			s, err := mw.NewSpace(mw.SpaceConfig{
				Dim: 2,
				Ns:  ns,
				NewSystem: func(rank, sys int) mw.SystemEvaluator {
					return &mw.FuncSystem{
						F:      testfunc.Sphere,
						Sigma0: sim.ConstSigma(1),
						Rng:    noise.NewSource(int64(100*rank + sys)),
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Shutdown)
			return s
		}},
	}
}

// TestSpaceContract is the one contract table every sampling backend keeps,
// one row per (backend, case). Each row starts from three live points a, b,
// c sampled once together, then issues one more SampleBatch:
//
//   - a context canceled on entry returns ctx.Err() and moves neither the
//     clock nor Evaluations;
//   - an empty batch leaves the clock where it was;
//   - a k-point batch advances the clock by dt once and Evaluations by k
//     increments;
//   - a batch listing a point of another space, a closed point or one point
//     twice panics, and nothing is sampled. Fresh points fill the space
//     after the Close, so on an MW space the closed point's worker rank is
//     already serving another vertex.
func TestSpaceContract(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		// batch builds the batch from the space's live points; other is a
		// point of a second space of the same backend.
		batch     func(sp sim.Space, a, b, c sim.Point, other func() sim.Point) []sim.Point
		wantErr   error
		wantPanic string
		k         int64 // points sampled by the batch
	}{
		{name: "pre-canceled", ctx: canceled, wantErr: context.Canceled,
			batch: func(_ sim.Space, a, b, c sim.Point, _ func() sim.Point) []sim.Point { return []sim.Point{a, b, c} }},
		{name: "empty",
			batch: func(sim.Space, sim.Point, sim.Point, sim.Point, func() sim.Point) []sim.Point { return nil }},
		{name: "one-point", k: 1,
			batch: func(_ sim.Space, a, _, _ sim.Point, _ func() sim.Point) []sim.Point { return []sim.Point{a} }},
		{name: "three-points", k: 3,
			batch: func(_ sim.Space, a, b, c sim.Point, _ func() sim.Point) []sim.Point { return []sim.Point{c, a, b} }},
		{name: "foreign", wantPanic: "foreign",
			batch: func(_ sim.Space, a, _, _ sim.Point, other func() sim.Point) []sim.Point {
				return []sim.Point{a, other()}
			}},
		{name: "closed", wantPanic: "closed",
			batch: func(sp sim.Space, a, b, _ sim.Point, _ func() sim.Point) []sim.Point {
				b.Close()
				// a, c and three fresh points hold all d+3 = 5 worker ranks
				// of an MW space, b's old rank included.
				for i := range 3 {
					sp.NewPoint([]float64{-1, float64(i)})
				}
				return []sim.Point{a, b}
			}},
		{name: "repeated", wantPanic: "twice",
			batch: func(_ sim.Space, a, b, c sim.Point, _ func() sim.Point) []sim.Point { return []sim.Point{a, b, c, a} }},
	}
	for _, backend := range spaceBackends() {
		for _, tc := range cases {
			t.Run(backend.name+"/"+tc.name, func(t *testing.T) {
				sp := backend.build(t)
				a, b, c := sp.NewPoint([]float64{0.5, 1}), sp.NewPoint([]float64{1, 0}), sp.NewPoint([]float64{0, -1})
				if err := sp.SampleBatch(context.Background(), []sim.Point{a, b, c}, contractDt); err != nil {
					t.Fatal(err)
				}
				evals, now := sp.Evaluations(), sp.Clock().Now()
				before := [3]sim.Estimate{a.Estimate(), b.Estimate(), c.Estimate()}
				other := func() sim.Point { return backend.build(t).NewPoint([]float64{0, 0}) }
				batch := tc.batch(sp, a, b, c, other)

				ctx := tc.ctx
				if ctx == nil {
					ctx = context.Background()
				}
				var err error
				msg := panicOf(func() { err = sp.SampleBatch(ctx, batch, contractDt) })
				if !strings.Contains(msg, tc.wantPanic) || (tc.wantPanic == "") != (msg == "") {
					t.Fatalf("panic %q, want one containing %q", msg, tc.wantPanic)
				}
				if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}

				wantEvals, wantNow := evals+tc.k*backend.perPoint, now
				if tc.k > 0 {
					wantNow += contractDt
				}
				if got := sp.Evaluations(); got != wantEvals {
					t.Errorf("Evaluations = %d, want %d", got, wantEvals)
				}
				if got := sp.Clock().Now(); got != wantNow {
					t.Errorf("clock = %v, want %v", got, wantNow)
				}
				if tc.k == 0 && a.Estimate() != before[0] {
					t.Errorf("a batch that sampled nothing moved a point: %+v -> %+v", before[0], a.Estimate())
				}
				if tc.k == 3 {
					for i, p := range []sim.Point{a, b, c} {
						if got, want := p.Estimate().Time, before[i].Time+contractDt; got != want {
							t.Errorf("point %d sampled to t=%v, want %v", i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestFleetWithoutObjectivePanics: a fleet is attached only when the space
// is built, and only together with the name its workers evaluate.
func TestFleetWithoutObjectivePanics(t *testing.T) {
	msg := panicOf(func() {
		sim.NewLocalSpace(sim.LocalConfig{Dim: 2, F: testfunc.Sphere, Fleet: newFleet(t, 0, 1)})
	})
	if !strings.Contains(msg, "FleetObjective") {
		t.Fatalf("Fleet without FleetObjective: panic %q", msg)
	}
}

// panicOf runs f and returns what it panicked with, or "" when it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
