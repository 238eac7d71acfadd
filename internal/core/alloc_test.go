package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// TestResampleAllocBudget: a pc step's resample rounds — the steady state of
// an indeterminate comparison — allocate nothing once the optimizer's batch
// scratch is warm, under either scope, on a cost-free space that was offered
// a pool (the shape of every non-fleet optd job).
func TestResampleAllocBudget(t *testing.T) {
	pool := sched.New(sched.Config{Workers: 4})
	defer pool.Close()
	for _, scope := range []ResampleScope{ScopeActive, ScopePair} {
		sp := sim.NewLocalSpace(sim.LocalConfig{
			Dim: 3, F: testfunc.Rosenbrock, Sigma0: sim.ConstSigma(10), Seed: 4, Parallel: true, Pool: pool,
		})
		cfg := DefaultConfig(PC)
		cfg.MaxWalltime = 0
		cfg.Scope = scope
		o := &optimizer{space: sp, cfg: cfg, d: 3, clock: sp.Clock(), ctx: context.Background()}
		for _, x := range [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}} {
			o.verts = append(o.verts, sp.NewPoint(x))
		}
		o.trials = append(o.trials, sp.NewPoint([]float64{1, 1, 1}))
		for _, fresh := range [][]sim.Point{o.verts, o.trials} {
			if err := o.sampleFresh(fresh); err != nil {
				t.Fatal(err)
			}
		}
		dec := decisionClock{o: o}
		round := func() {
			dec.rounds = 0
			dt := cfg.Resample
			if ok, err := o.resample(o.trials[0], o.verts[0], &dt, &dec); !ok || err != nil {
				t.Fatalf("resample: ok=%v err=%v", ok, err)
			}
		}
		round() // warm the scratch
		// 50 runs keep every point short of the draw at which its noise
		// stream allocates its state vector.
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Errorf("scope %v: %.1f allocs per resample round, want 0", scope, allocs)
		}
		if n := pool.Dispatched(); n != 0 {
			t.Errorf("scope %v: resample rounds dispatched %d tasks on the offered pool", scope, n)
		}
	}
}

// TestStepAllocBudget: on a warm optimizer, a whole pc iteration —
// sequential or speculative, trace included — allocates one object per
// point it creates (counted from sim_points_total) plus the trace event's
// copy of the best vertex, and nothing else: the candidate set, the batches
// and the geometry are optimizer scratch. A costed space adds the fixed
// per-batch cost of a pool dispatch (counted from sim_batches_total), the
// same for a speculative candidate batch as for any other: never a cost per
// candidate.
func TestStepAllocBudget(t *testing.T) {
	points := obs.Default().Counter("sim_points_total")
	batches := obs.Default().Counter("sim_batches_total")
	pool := sched.New(sched.Config{Workers: 4})
	defer pool.Close()
	// A pool batch allocates the index closure SampleBatch hands to DoN,
	// DoN's batch header and the participant method value it enqueues.
	const perBatch = 3
	const d = 8
	for _, row := range []struct {
		name                string
		costed, speculative bool
	}{
		{"in-caller sequential", false, false},
		{"in-caller speculative", false, true},
		{"pool sequential", true, false},
		{"pool speculative", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			lc := sim.LocalConfig{Dim: d, F: testfunc.Rosenbrock, Sigma0: sim.ConstSigma(10), Seed: 4, Parallel: true}
			if row.costed {
				lc.Pool, lc.SampleCost = pool, func([]float64, float64) {}
			}
			sp := sim.NewLocalSpace(lc)
			cfg := DefaultConfig(PC)
			cfg.MaxWalltime = 0
			cfg.Tol = 0
			cfg.Speculative = row.speculative
			cfg.Trace = func(TraceEvent) {}
			o := newOptimizer(context.Background(), sp, cfg, d)
			rng := rand.New(noise.NewSource(9))
			for _, x := range initSimplex(d, -2, 2, rng) {
				o.verts = append(o.verts, sp.NewPoint(x))
			}
			if err := o.sampleFresh(o.verts); err != nil {
				t.Fatal(err)
			}
			iteration := func() {
				if err := o.stepPC(false); err != nil {
					t.Fatal(err)
				}
				o.emitTrace()
			}
			for i := 0; i < 50; i++ { // warm the scratch
				iteration()
			}
			// Counted like testing.AllocsPerRun, without its rounding down.
			const runs = 200
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs, created, sampled := ms.Mallocs, points.Value(), batches.Value()
			for i := 0; i < runs; i++ {
				iteration()
			}
			runtime.ReadMemStats(&ms)
			mallocs, created, sampled = ms.Mallocs-mallocs, points.Value()-created, batches.Value()-sampled
			// Points also take their share of the space's coordinate slabs,
			// which hold 64 points once grown: 1/32 of a slab per point is
			// ample, and still far below one stray allocation per iteration.
			budget := uint64(created+created/32) + runs
			if row.costed {
				budget += perBatch * uint64(sampled)
			}
			if mallocs > budget {
				t.Errorf("%d allocations in %d iterations, budget %d (%d points created + slab share + 1 trace copy each, %d batches)",
					mallocs, runs, budget, created, sampled)
			}
			t.Logf("%d allocations in %d iterations creating %d points in %d batches", mallocs, runs, created, sampled)
		})
	}
}
