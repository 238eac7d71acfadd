package jobs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/jobstore/storetest"
	"repro/internal/testfunc"
)

// waitJobState polls until the job reaches the wanted state.
func waitJobState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func tenantSpec(tenant string, seed int64) Spec {
	spec := smallSpec(seed)
	spec.Tenant = tenant
	spec.MaxIterations = 3
	return spec
}

// TestTenantQuotaMaxQueued: submissions beyond the queued cap fail with
// ErrQuotaExceeded, other tenants are unaffected, and capacity freed by a
// cancellation is reusable.
func TestTenantQuotaMaxQueued(t *testing.T) {
	m := newManager(t, Config{
		MaxConcurrent: 1,
		DefaultQuota:  Quota{MaxQueued: 2},
		Objectives:    slowObjectives(time.Millisecond),
	})
	// Occupy the single run slot so later submissions stay queued.
	blocker := slowSpec(1)
	blocker.Tenant = "alpha"
	blockerID, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, blockerID, StateRunning)

	var queued []string
	for i := 0; i < 2; i++ {
		id, err := m.Submit(tenantSpec("alpha", int64(i)))
		if err != nil {
			t.Fatalf("within-quota submission %d: %v", i, err)
		}
		queued = append(queued, id)
	}
	if _, err := m.Submit(tenantSpec("alpha", 9)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submission: %v, want ErrQuotaExceeded", err)
	}
	// Another tenant has its own budget.
	if _, err := m.Submit(tenantSpec("beta", 1)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	// Canceling a queued job frees a slot immediately.
	if err := m.Cancel(queued[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tenantSpec("alpha", 10)); err != nil {
		t.Fatalf("submission after freeing quota: %v", err)
	}

	stats := m.Tenants()
	if len(stats) != 2 || stats[0].Tenant != "alpha" || stats[1].Tenant != "beta" {
		t.Fatalf("unexpected tenant stats: %+v", stats)
	}
	if stats[0].Rejected != 1 || stats[0].Submitted != 4 {
		t.Fatalf("alpha accounting: %+v", stats[0])
	}
}

// TestTenantMaxRunningNoHeadOfLineBlocking: a tenant at its running cap
// keeps its jobs queued, but jobs of other tenants behind them in the FIFO
// still get slots.
func TestTenantMaxRunningNoHeadOfLineBlocking(t *testing.T) {
	m := newManager(t, Config{
		MaxConcurrent: 2,
		TenantQuotas:  map[string]Quota{"capped": {MaxRunning: 1}},
		Objectives:    slowObjectives(time.Millisecond),
	})
	first := slowSpec(1)
	first.Tenant = "capped"
	firstID, err := m.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, firstID, StateRunning)

	// Second capped job queues ahead of the other tenant's job.
	second := slowSpec(2)
	second.Tenant = "capped"
	secondID, err := m.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	otherID, err := m.Submit(tenantSpec("other", 3))
	if err != nil {
		t.Fatal(err)
	}
	// The other tenant's job must pass the capped one.
	waitJobState(t, m, otherID, StateDone)
	if st, _ := m.Get(secondID); st.State != StateQueued {
		t.Fatalf("capped job should still be queued, is %s", st.State)
	}
	// Freeing the capped tenant's slot lets its queued job run.
	if err := m.Cancel(firstID); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, secondID, StateRunning)
	if err := m.Cancel(secondID); err != nil {
		t.Fatal(err)
	}
}

// TestFinishWakesRunnerForCappedTenant: when a job of a tenant at its
// running cap ends, an idle runner starts the tenant's job the cap held
// back, while the finishing runner is still settling the first (its record
// drop held on the disk). Only the finishing runner's own rescan would
// start it otherwise, once the drop returns.
func TestFinishWakesRunnerForCappedTenant(t *testing.T) {
	st, _ := faultyWAL(t)
	gate, hold := make(chan struct{}), make(chan struct{})
	entered := st.Hold(storetest.OpDelete, 1, hold) // the first job's record drop
	m := newManager(t, Config{
		MaxConcurrent: 2,
		Store:         st,
		TenantQuotas:  map[string]Quota{"capped": {MaxRunning: 1}},
		Objectives: map[string]func([]float64) float64{
			"gate": func(x []float64) float64 { <-gate; return testfunc.Rosenbrock(x) },
		},
	})
	var gateOnce, holdOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	release := func() { holdOnce.Do(func() { close(hold) }) }
	t.Cleanup(func() { openGate(); release() }) // before the manager's Close

	first := tenantSpec("capped", 1)
	first.Objective = "gate"
	firstID, err := m.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, firstID, StateRunning)
	secondID, err := m.Submit(tenantSpec("capped", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Get(secondID); st.State != StateQueued {
		t.Fatalf("second capped job is %s while the first runs, want queued", st.State)
	}

	openGate()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first job never reached its record drop")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := m.Get(secondID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State != StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the capped tenant's queued job waited for the finishing runner's held record drop: no idle runner was woken for the freed slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	release()
	if _, err := m.Wait(secondID); err != nil {
		t.Fatal(err)
	}
}

// TestTenantRateLimit: the token bucket admits Burst submissions
// immediately, then rejects with ErrRateLimited until time refills it.
func TestTenantRateLimit(t *testing.T) {
	m := newManager(t, Config{
		MaxConcurrent: 2,
		TenantQuotas:  map[string]Quota{"metered": {RatePerSec: 0.001, Burst: 2}},
	})
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(tenantSpec("metered", int64(i))); err != nil {
			t.Fatalf("burst submission %d: %v", i, err)
		}
	}
	if _, err := m.Submit(tenantSpec("metered", 9)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-rate submission: %v, want ErrRateLimited", err)
	}
	// An unmetered tenant is unaffected.
	if _, err := m.Submit(tenantSpec("free", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestTenantStorm is the satellite race storm: N tenants × M goroutines
// hammer submit/cancel/status/quota-exhaust concurrently (run under -race
// in CI). At the end every accepted job must be terminal and each
// tenant's queued/running accounting must balance to exactly zero.
func TestTenantStorm(t *testing.T) {
	const (
		tenants    = 4
		goroutines = 4 // per tenant
		perG       = 8 // submissions per goroutine
	)
	m := newManager(t, Config{
		MaxConcurrent: 4,
		// A multi-worker fleet and a (no-op) increment cost so batches go
		// through the concurrent fair-share queues (cost-free draws, or
		// Workers 1, would run serially in-caller), and tight quotas so the
		// storm constantly trips them.
		Workers:      4,
		SampleCost:   func([]float64, float64) {},
		DefaultQuota: Quota{MaxQueued: 6, MaxRunning: 2},
	})
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []string
	)
	for ten := 0; ten < tenants; ten++ {
		tenant := fmt.Sprintf("tenant-%d", ten)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(tenant string, g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)*1000 + 1)) //optlint:nondeterministic-ok test-local jitter
				for i := 0; i < perG; i++ {
					spec := tenantSpec(tenant, int64(g*perG+i))
					id, err := m.Submit(spec)
					if err != nil {
						if !errors.Is(err, ErrQuotaExceeded) && !errors.Is(err, ErrRateLimited) {
							t.Errorf("unexpected submit error: %v", err)
							return
						}
						// Quota full: let the pool drain a little.
						time.Sleep(time.Duration(rng.Intn(4)+1) * time.Millisecond)
						continue
					}
					mu.Lock()
					ids = append(ids, id)
					mu.Unlock()
					switch rng.Intn(3) {
					case 0:
						if err := m.Cancel(id); err != nil {
							t.Errorf("Cancel(%s): %v", id, err)
						}
					case 1:
						if _, err := m.Get(id); err != nil {
							t.Errorf("Get(%s): %v", id, err)
						}
					}
				}
			}(tenant, g)
		}
	}
	wg.Wait()

	for _, id := range ids {
		if _, err := m.Wait(id); err != nil {
			// Canceled-before-start and failed results are fine; the wait
			// itself must resolve.
			continue
		}
	}
	// Quota accounting must balance to zero for every tenant.
	for _, ts := range m.Tenants() {
		if ts.Queued != 0 || ts.Running != 0 {
			t.Errorf("tenant %s accounting did not balance: queued=%d running=%d", ts.Tenant, ts.Queued, ts.Running)
		}
		if ts.Submitted == 0 && ts.Rejected == 0 {
			t.Errorf("tenant %s saw no traffic", ts.Tenant)
		}
	}
	if got := len(m.Tenants()); got != tenants {
		t.Errorf("expected %d tenants, got %d", tenants, got)
	}
	// The fleet's fair-share ledger must balance too: every batch task
	// handed to a worker was charged to exactly one tenant, nothing stays
	// queued once every job is terminal, and the per-tenant dispatched
	// counters sum to the scheduler's total.
	var dispatched uint64
	for _, sh := range m.pool.Shares() {
		if sh.Queued != 0 {
			t.Errorf("tenant %q still has %d fleet tasks queued", sh.Tenant, sh.Queued)
		}
		dispatched += sh.Dispatched
	}
	if total := m.pool.Dispatched(); dispatched != total {
		t.Errorf("per-tenant fleet dispatches sum to %d, scheduler total is %d", dispatched, total)
	}
	if m.pool.Dispatched() == 0 {
		t.Error("storm dispatched no fleet batches through the fair-share queues")
	}
}

// TestSubmitWithID pins the router-facing contract: explicit IDs are
// honored, duplicates and invalid IDs are rejected, and numeric-form
// explicit IDs reserve their number against auto-assignment.
func TestSubmitWithID(t *testing.T) {
	m := newManager(t, Config{MaxConcurrent: 2})
	id, err := m.SubmitWithID("r7-j000005", tenantSpec("", 1))
	if err != nil || id != "r7-j000005" {
		t.Fatalf("SubmitWithID: %q, %v", id, err)
	}
	if _, err := m.SubmitWithID("r7-j000005", tenantSpec("", 2)); err == nil {
		t.Fatal("duplicate explicit ID accepted")
	}
	if _, err := m.SubmitWithID("../evil", tenantSpec("", 3)); err == nil {
		t.Fatal("invalid explicit ID accepted")
	}
	if _, err := m.SubmitWithID("j000010", tenantSpec("", 4)); err != nil {
		t.Fatal(err)
	}
	auto, err := m.Submit(tenantSpec("", 5))
	if err != nil {
		t.Fatal(err)
	}
	if auto != "j000011" {
		t.Fatalf("auto ID after explicit j000010 = %s, want j000011", auto)
	}
}

// TestSubmitTimeDurability: a job killed while still QUEUED (never ran,
// never checkpointed) must survive into the next manager via its
// submit-time record and then complete.
func TestSubmitTimeDurability(t *testing.T) {
	for _, kind := range []string{"file", "wal"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			m1, err := New(Config{
				MaxConcurrent: 1,
				Store:         openStore(t, kind, dir),
				Objectives:    slowObjectives(time.Millisecond),
			})
			if err != nil {
				t.Fatal(err)
			}
			blocker := slowSpec(1)
			blockerID, err := m1.Submit(blocker)
			if err != nil {
				t.Fatal(err)
			}
			waitJobState(t, m1, blockerID, StateRunning)
			queuedSpec := tenantSpec("acme", 2)
			queuedID, err := m1.Submit(queuedSpec)
			if err != nil {
				t.Fatal(err)
			}
			m1.Close() // the "kill": queued job never started

			// The directory names its own layout: jobstore.Open reopens it
			// as the kind m1 wrote.
			m2 := newManager(t, Config{MaxConcurrent: 2, Store: openStore(t, "", dir),
				Objectives: slowObjectives(time.Millisecond)})
			if got := m2.Stats().Store; got != kind {
				t.Fatalf("reopened store kind = %q, want %q", got, kind)
			}
			ids, err := m2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			found := false
			for _, id := range ids {
				if id == queuedID {
					found = true
				}
			}
			if !found {
				t.Fatalf("queued job %s not recovered (got %v)", queuedID, ids)
			}
			res, err := m2.Wait(queuedID)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m2.Get(queuedID)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Resumed || st.Tenant != "acme" {
				t.Fatalf("recovered job lost identity: %+v", st)
			}
			// The recovered-from-spec run must match a fresh run bitwise.
			ref := newManager(t, Config{MaxConcurrent: 1})
			refID, err := ref.Submit(queuedSpec)
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.Wait(refID)
			if err != nil {
				t.Fatal(err)
			}
			if res.BestG != refRes.BestG || res.Iterations != refRes.Iterations {
				t.Fatalf("recovered run diverged: %v/%d vs %v/%d",
					res.BestG, res.Iterations, refRes.BestG, refRes.Iterations)
			}
		})
	}
}

// TestRecoverFromAdoptsForeignStore: the failover primitive — a manager
// adopts a dead replica's store, runs its jobs, and cleans their records
// out of the adopted store on completion.
func TestRecoverFromAdoptsForeignStore(t *testing.T) {
	deadDir := t.TempDir()
	m1, err := New(Config{MaxConcurrent: 1, Store: openStore(t, "", deadDir),
		Objectives: slowObjectives(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	blockerID, err := m1.Submit(slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m1, blockerID, StateRunning)
	queuedID, err := m1.Submit(tenantSpec("acme", 2))
	if err != nil {
		t.Fatal(err)
	}
	m1.Close() // the dead replica

	// The survivor has its own store and adopts the dead one's.
	m2 := newManager(t, Config{MaxConcurrent: 2, Store: openStore(t, "", t.TempDir()),
		Objectives: slowObjectives(time.Millisecond)})
	st, err := jobstore.OpenFile(deadDir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := m2.RecoverFrom(st)
	if err != nil {
		t.Fatalf("RecoverFrom: %v", err)
	}
	if len(ids) != 2 {
		t.Fatalf("adopted %v, want both jobs", ids)
	}
	if _, err := m2.Wait(queuedID); err != nil {
		t.Fatal(err)
	}
	// The blocker has no iteration cap; cancel it instead of waiting.
	if err := m2.Cancel(blockerID); err != nil {
		t.Fatal(err)
	}

	// The completed job's record must be gone from the ADOPTED store.
	recs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == queuedID {
			t.Fatalf("completed adopted job %s still recorded in the dead store", queuedID)
		}
	}
}

// TestTenantQuotaRollbackOnStoreFailure: a submission that passes admission
// but fails persistence must release its queued-quota reservation —
// otherwise a flaky disk permanently eats the tenant's quota.
func TestTenantQuotaRollbackOnStoreFailure(t *testing.T) {
	st, _ := faultyWAL(t)
	for n := 1; n <= 3; n++ {
		st.Fail(storetest.OpPut, n, errors.New("disk full"))
	}
	m := newManager(t, Config{
		MaxConcurrent: 1,
		Store:         st,
		DefaultQuota:  Quota{MaxQueued: 1},
	})
	for i := 0; i < 3; i++ {
		_, err := m.Submit(tenantSpec("acme", int64(i)))
		if err == nil {
			t.Fatalf("submit %d: want persistence error, got success", i)
		}
		if errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("submit %d hit the quota: the failed attempts leaked their reservations (%v)", i, err)
		}
	}
	for _, ts := range m.Tenants() {
		if ts.Tenant == "acme" && (ts.Queued != 0 || ts.Running != 0 || ts.Submitted != 0) {
			t.Fatalf("tenant accounting after rollbacks: %+v, want nothing queued, running or submitted", ts)
		}
	}
}

// TestQuotaCapDoesNotDrainBucket is the regression test for the admission
// ordering bug: rejections at the queued-job cap must not consume rate
// tokens. Before the fix, every capped submission first burned a token, so
// a tenant hammering a full queue drained its bucket and then ate spurious
// rate errors after the queue freed up.
func TestQuotaCapDoesNotDrainBucket(t *testing.T) {
	m := newManager(t, Config{
		MaxConcurrent: 1,
		TenantQuotas:  map[string]Quota{"acme": {MaxQueued: 1, RatePerSec: 0.001, Burst: 2}},
		Objectives:    slowObjectives(time.Millisecond),
	})
	t0 := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return t0 } // frozen clock: no refill during the test

	// Occupy the run slot, then the tenant's single queued slot.
	blocker := slowSpec(1)
	blocker.Tenant = "other"
	blockerID, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, blockerID, StateRunning)
	queuedID, err := m.Submit(tenantSpec("acme", 2))
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the full queue. Every rejection must be the quota error —
	// with the buggy ordering the second one already surfaced as
	// ErrRateLimited because the first had silently burned the last token.
	for i := 0; i < 5; i++ {
		_, err := m.Submit(tenantSpec("acme", int64(10+i)))
		if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("capped submission %d: %v, want ErrQuotaExceeded", i, err)
		}
	}

	// Free the queue: the bucket must still hold its remaining token, so
	// the next submission is admitted without any refill time passing.
	if err := m.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	lastID, err := m.Submit(tenantSpec("acme", 20))
	if err != nil {
		t.Fatalf("submission after freeing the cap: %v (the cap rejections drained the bucket)", err)
	}
	// And that was the last token (burst 2, frozen clock): with queue room
	// available again, the next rejection is the rate limiter's.
	if err := m.Cancel(lastID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tenantSpec("acme", 21)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("bucket should now be empty: %v, want ErrRateLimited", err)
	}
}

// TestRateRefillBoundaries drives the token bucket through its refill
// boundaries on an injected clock — no sleeping, bitwise-exact arithmetic
// (0.5s × 2/s buys exactly 1.0 tokens in binary floating point).
func TestRateRefillBoundaries(t *testing.T) {
	m := newManager(t, Config{
		MaxConcurrent: 2,
		TenantQuotas:  map[string]Quota{"metered": {RatePerSec: 2, Burst: 4}},
	})
	now := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return now }

	steps := []struct {
		name    string
		advance time.Duration
		admit   int  // submissions that must succeed at this instant
		then    bool // whether one more must be rate-limited
	}{
		// A fresh tenant starts with a full bucket; the burst admits
		// exactly Burst submissions and the empty bucket rejects the next.
		{"burst-then-empty", 0, 4, true},
		// 0.5s at 2 tokens/s refills exactly one token: one admit, then
		// empty again — the exact-1-token boundary.
		{"exact-one-token", 500 * time.Millisecond, 1, true},
		// A long idle caps the refill at the burst depth: exactly 4, not
		// 2 tokens/s × 10min.
		{"idle-caps-at-burst", 10 * time.Minute, 4, true},
	}
	seed := int64(0)
	for _, step := range steps {
		now = now.Add(step.advance)
		for i := 0; i < step.admit; i++ {
			seed++
			if _, err := m.Submit(tenantSpec("metered", seed)); err != nil {
				t.Fatalf("%s: admit %d/%d: %v", step.name, i+1, step.admit, err)
			}
		}
		if step.then {
			seed++
			if _, err := m.Submit(tenantSpec("metered", seed)); !errors.Is(err, ErrRateLimited) {
				t.Fatalf("%s: over-rate submission: %v, want ErrRateLimited", step.name, err)
			}
		}
	}
}
