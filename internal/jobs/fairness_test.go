package jobs

import (
	"runtime"
	"testing"
)

// fairSpec is the fairness workload: a 16-particle swarm under noise so
// strong that every personal-best comparison stays indeterminate through all
// of its resample rounds. Each round is a two-point batch on the shared
// fleet, so a running job keeps a steady stream of batches queued there for
// as long as it lives. (A fresh candidate is one point, rides the
// scheduler's in-caller serial path and never queues.)
func fairSpec(tenant string, seed int64, swarmIters int) Spec {
	return Spec{
		Objective:       "rosenbrock",
		Dim:             3,
		Algorithm:       "pso",
		Sigma0:          1e9,
		Seed:            seed,
		Tol:             -1,
		Budget:          1e300,
		Particles:       16,
		SwarmIterations: swarmIters,
		Tenant:          tenant,
	}
}

// yieldCost stands in for the simulation a fleet worker runs per draw. The
// scheduler yields make a draw long next to a goroutine wake-up, so the
// fleet, not the jobs' own goroutines, is the contended resource — without a
// sleep (a clock) or a spin (a core per worker).
func yieldCost([]float64, float64) {
	for i := 0; i < 64; i++ {
		runtime.Gosched()
	}
}

// lightJobDispatches runs short "light"-tenant jobs one at a time beside
// heavyJobs endless "heavy"-tenant jobs on a two-worker fleet and returns,
// per light job, how many fleet tasks were dispatched while it ran: in total
// and to the light tenant's own queue (zero under FIFO, which keeps one
// queue for everybody).
func lightJobDispatches(t *testing.T, policy string, heavyJobs int) (total, light []uint64) {
	t.Helper()
	m := newManager(t, Config{
		MaxConcurrent: heavyJobs + 1,
		Workers:       2,
		SchedPolicy:   policy,
		SampleCost:    yieldCost,
	})
	for i := 0; i < heavyJobs; i++ {
		id, err := m.Submit(fairSpec("heavy", 3000+int64(i), 1<<30))
		if err != nil {
			t.Fatal(err)
		}
		waitJobState(t, m, id, StateRunning)
	}
	ledger := func() (total, light uint64) {
		for _, sh := range m.pool.Shares() {
			total += sh.Dispatched
			if sh.Tenant == "light" {
				light = sh.Dispatched
			}
		}
		return total, light
	}
	const lightJobs = 4
	for i := 0; i < lightJobs; i++ {
		total0, light0 := ledger()
		id, err := m.Submit(fairSpec("light", 4000+int64(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(id); err != nil {
			t.Fatal(err)
		}
		total1, light1 := ledger()
		total = append(total, total1-total0)
		light = append(light, light1-light0)
	}
	return total, light
}

// TestFairShareShieldsLightTenant is the reason the fleet schedules by
// tenant: with a heavy tenant keeping the fleet's queue full, a light
// tenant's batch waits behind every queued heavy task under FIFO and behind
// about one under fair-share. It compares counts, not clocks: the heavy
// dispatches the fleet makes over the life of one light job.
func TestFairShareShieldsLightTenant(t *testing.T) {
	// A light job's own dispatches are a pure function of its spec (two
	// participants per two-point batch), so a solo run prices them for the
	// FIFO leg, whose single queue cannot tell the tenants apart.
	own, _ := lightJobDispatches(t, "fair", 0)
	fifoTotal, _ := lightJobDispatches(t, "fifo", 8)
	fairTotal, fairLight := lightJobDispatches(t, "fair", 8)
	var fifo, fair uint64
	for i := range own {
		if fairLight[i] != own[i] {
			t.Errorf("light job %d: ledger charged the light tenant %d dispatches, a solo run makes %d",
				i, fairLight[i], own[i])
		}
		fifo += fifoTotal[i] - own[i]
		fair += fairTotal[i] - own[i]
	}
	t.Logf("heavy dispatches per light job: fifo %d, fair %d (a light job's own: %d)",
		fifo/uint64(len(own)), fair/uint64(len(own)), own[0])
	if fair == 0 {
		t.Fatal("the heavy tenant dispatched nothing beside the light jobs: the fleet was never contended")
	}
	if fifo <= 2*fair {
		t.Fatalf("fair-share did not shield the light tenant: %d heavy dispatches across its jobs under fifo, %d under fair (want more than twice)",
			fifo, fair)
	}
}
