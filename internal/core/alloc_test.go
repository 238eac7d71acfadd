package core

import (
	"context"
	"testing"

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
			if err := o.sampleFresh(fresh, nil); err != nil {
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
