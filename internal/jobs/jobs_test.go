package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/testfunc"
)

// smallSpec is a quick PC job used throughout the tests.
func smallSpec(seed int64) Spec {
	return Spec{
		Name:          fmt.Sprintf("t-%d", seed),
		Objective:     "rosenbrock",
		Dim:           3,
		Algorithm:     "pc",
		Sigma0:        50,
		Seed:          seed,
		Budget:        1e12,
		Tol:           -1, // run to the iteration cap
		MaxIterations: 60,
	}
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// openStore opens the store in dir, kind picking the layout of a new dir;
// the manager it is handed to closes it.
func openStore(tb testing.TB, kind, dir string) jobstore.Store {
	tb.Helper()
	st, err := jobstore.Open(kind, dir)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// slowObjectives registers "slowrosen": Rosenbrock with a real-time delay
// per point creation, so tests that must catch a job mid-run have a window
// to do it in. The delay has no effect on the sampled values.
func slowObjectives(d time.Duration) map[string]func([]float64) float64 {
	return map[string]func([]float64) float64{
		"slowrosen": func(x []float64) float64 {
			time.Sleep(d)
			return testfunc.Rosenbrock(x)
		},
	}
}

// slowSpec is smallSpec on the slow objective with no iteration cap: it runs
// until canceled (or for ~a minute, far longer than any test waits).
func slowSpec(seed int64) Spec {
	spec := smallSpec(seed)
	spec.Objective = "slowrosen"
	spec.MaxIterations = 0
	return spec
}

func TestSubmitWaitResult(t *testing.T) {
	m := newManager(t, Config{MaxConcurrent: 2})
	id, err := m.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 60 || res.Termination != "iterations" {
		t.Fatalf("unexpected result: %d iterations, termination %q", res.Iterations, res.Termination)
	}
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Iterations != 60 {
		t.Fatalf("unexpected status %+v", st)
	}
	if st.Started.IsZero() || st.Finished.Before(st.Started) {
		t.Fatalf("lifecycle timestamps wrong: %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{})
	bad := []Spec{
		{Objective: "no-such-func", Dim: 3, Sigma0: 1},
		{Objective: "rosenbrock", Dim: 0, Sigma0: 1},
		{Objective: "powell", Dim: 3, Sigma0: 1},          // powell requires d=4
		{Objective: "rosenbrock", Dim: 3, Algorithm: "x"}, // unknown algorithm
		{Objective: "rosenbrock", Dim: 3, Lo: 2, Hi: 1},
		{Objective: "rosenbrock", Dim: 3, Restarts: -1},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if _, err := m.Get("j999999"); err != ErrNotFound {
		t.Fatalf("Get unknown id: %v", err)
	}
	if err := m.Cancel("j999999"); err != ErrNotFound {
		t.Fatalf("Cancel unknown id: %v", err)
	}
}

// TestConcurrentJobs is the acceptance-criterion load test: the manager
// sustains >= 8 jobs running concurrently over the shared fleet, every job
// completes, and each job's result matches a solo run of the same spec
// bitwise (jobs must not interfere).
func TestConcurrentJobs(t *testing.T) {
	// Sleep-backed objective: jobs block on timers rather than CPU, so all 8
	// slots genuinely overlap even on a 2-core CI box.
	const n = 12
	slow := slowObjectives(time.Millisecond)
	// The batch mixes every dispatch shape a job can take: sequential and
	// speculative simplex steps, swarm batches, and the swarm-then-simplex
	// hybrid.
	concSpec := func(i int) Spec {
		spec := smallSpec(int64(100 + i))
		spec.Objective = "slowrosen"
		spec.MaxIterations = 30
		switch i % 4 {
		case 1:
			spec.Speculative = true
		case 2:
			spec.Algorithm = "pso"
		case 3:
			spec.Algorithm = "hybrid"
		}
		if i%4 >= 2 {
			spec.Particles = 6
			spec.SwarmIterations = 6
		}
		return spec
	}
	m := newManager(t, Config{MaxConcurrent: 8, Workers: 4, Objectives: slow})

	ids := make([]string, n)
	for i := range ids {
		id, err := m.Submit(concSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			if _, err := m.Wait(id); err != nil {
				t.Errorf("job %s: %v", id, err)
			}
		}(i, id)
	}
	wg.Wait()

	// Overlap check: with 12 jobs and 8 slots, at least 8 distinct jobs
	// must have been running at once at some point; verify via timestamps.
	sts := m.List()
	if len(sts) != n {
		t.Fatalf("List returned %d jobs, want %d", len(sts), n)
	}
	maxOverlap := 0
	for _, a := range sts {
		overlap := 0
		for _, b := range sts {
			if !b.Started.After(a.Started) && !b.Finished.Before(a.Started) {
				overlap++
			}
		}
		if overlap > maxOverlap {
			maxOverlap = overlap
		}
	}
	if maxOverlap < 8 {
		t.Errorf("max concurrent jobs observed %d, want >= 8", maxOverlap)
	}

	// Isolation: each job's result equals a solo run of the same spec.
	solo := newManager(t, Config{MaxConcurrent: 1, Objectives: slow})
	for i, id := range ids {
		soloID, err := solo.Submit(concSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Wait(soloID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %s diverged from solo run:\nconcurrent %+v\nsolo       %+v", id, got, want)
		}
	}
}

// TestCancelRunning checks a running job stops quickly (within one sampling
// round) and reports state "canceled" with the best-so-far result.
func TestCancelRunning(t *testing.T) {
	m := newManager(t, Config{MaxConcurrent: 1, Objectives: slowObjectives(500 * time.Microsecond)})
	id, err := m.Submit(slowSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running and has made progress.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning && st.Iterations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" {
		t.Fatalf("termination %q, want canceled", res.Termination)
	}
	st, _ := m.Get(id)
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
}

// TestCancelQueued checks jobs canceled before a slot frees never run.
func TestCancelQueued(t *testing.T) {
	m := newManager(t, Config{MaxConcurrent: 1, Objectives: slowObjectives(500 * time.Microsecond)})
	blockID, err := m.Submit(slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := m.Submit(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(blockID); err != nil {
		t.Fatal(err)
	}
	// A job canceled before it ever started has no Result: Wait reports that
	// explicitly instead of returning (nil, nil).
	if _, err := m.Wait(queuedID); err == nil || !strings.Contains(err.Error(), "before it started") {
		t.Fatalf("Wait on never-started job: %v, want canceled-before-start error", err)
	}
	st, _ := m.Get(queuedID)
	if st.State != StateCanceled || !st.Started.IsZero() {
		t.Fatalf("queued job should cancel without starting: %+v", st)
	}
}

func TestSubscribeStream(t *testing.T) {
	m := newManager(t, Config{MaxConcurrent: 1, TraceBuffer: 4096})
	id, err := m.Submit(smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var traces int
	var sawTerminal bool
	for e := range ch {
		switch e.Type {
		case "trace":
			traces++
			if e.Trace == nil || e.JobID != id {
				t.Fatalf("malformed trace event %+v", e)
			}
		case "state":
			if e.State.Terminal() {
				sawTerminal = true
			}
		}
	}
	if traces == 0 {
		t.Error("no trace events received")
	}
	if !sawTerminal {
		t.Error("stream closed without a terminal state event")
	}
	// Late subscription to a terminal job yields the terminal state.
	ch2, cancel2, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	e, ok := <-ch2
	if !ok || e.State != StateDone {
		t.Fatalf("late subscription got %+v (ok=%v), want done state", e, ok)
	}
}

// TestCheckpointRecoverDeterminism is the durable half of the acceptance
// criterion: a job killed mid-run (manager closed) is recovered by a fresh
// manager from its on-disk checkpoint and produces a Result bitwise
// identical to an uninterrupted run of the same spec.
func TestCheckpointRecoverDeterminism(t *testing.T) {
	for _, restarts := range []int{0, 2} {
		t.Run(fmt.Sprintf("restarts=%d", restarts), func(t *testing.T) {
			slow := slowObjectives(time.Millisecond)
			spec := smallSpec(42)
			spec.Objective = "slowrosen"
			spec.Restarts = restarts
			spec.MaxIterations = 50

			// Uninterrupted reference run.
			ref := newManager(t, Config{MaxConcurrent: 1, Objectives: slow})
			refID, err := ref.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Wait(refID)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: checkpoint every iteration, kill mid-flight.
			dir := t.TempDir()
			m1, err := New(Config{MaxConcurrent: 1, Store: openStore(t, "", dir), CheckpointEvery: 1, Objectives: slow})
			if err != nil {
				t.Fatal(err)
			}
			id, err := m1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, err := m1.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.Iterations >= 5 {
					break
				}
				if st.State.Terminal() {
					t.Fatalf("job finished before it could be killed: %+v", st)
				}
				if time.Now().After(deadline) {
					t.Fatal("job made no progress")
				}
				time.Sleep(time.Millisecond)
			}
			m1.Close() // kill: cancels the run, leaves the checkpoint on disk

			files, err := filepath.Glob(filepath.Join(dir, "*"+ckptSuffix))
			if err != nil || len(files) != 1 {
				t.Fatalf("expected one checkpoint file, got %v (%v)", files, err)
			}

			// Fresh process: recover and run to completion.
			m2 := newManager(t, Config{MaxConcurrent: 1, Store: openStore(t, "", dir), CheckpointEvery: 1, Objectives: slow})
			ids, err := m2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 1 || ids[0] != id {
				t.Fatalf("recovered %v, want [%s]", ids, id)
			}
			// Post-recovery status must never show progress below the last
			// checkpoint (monotonicity for polling clients across the kill):
			// the pre-kill poll saw >= 5 iterations with CheckpointEvery 1,
			// so the snapshot holds at least iteration 4.
			if st, err := m2.Get(id); err != nil || st.Iterations < 4 {
				t.Fatalf("recovered status regressed: %+v (err %v)", st, err)
			}
			got, err := m2.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered run diverged from uninterrupted run:\nrecovered     %+v\nuninterrupted %+v", got, want)
			}
			st, _ := m2.Get(id)
			if !st.Resumed {
				t.Fatalf("recovered job not marked resumed: %+v", st)
			}

			// The checkpoint is cleaned up once the job completes.
			files, _ = filepath.Glob(filepath.Join(dir, "*"+ckptSuffix))
			if len(files) != 0 {
				t.Fatalf("checkpoint not removed after completion: %v", files)
			}
		})
	}
}

// TestRecoverSkipsGarbage checks unreadable checkpoint files are reported
// but do not block recovery of good ones.
func TestRecoverSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"+ckptSuffix), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Store: openStore(t, "", dir)})
	ids, err := m.Recover()
	if err == nil || !strings.Contains(err.Error(), "junk") {
		t.Fatalf("garbage checkpoint not reported: ids=%v err=%v", ids, err)
	}
	if len(ids) != 0 {
		t.Fatalf("recovered from garbage: %v", ids)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(smallSpec(1)); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// TestCustomObjective checks Config.Objectives extends the catalog.
func TestCustomObjective(t *testing.T) {
	m := newManager(t, Config{
		Objectives: map[string]func([]float64) float64{
			"parabola": func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		},
	})
	id, err := m.Submit(Spec{
		Objective: "parabola", Dim: 2, Algorithm: "det",
		Sigma0: 0, Seed: 5, MaxIterations: 200, Tol: 1e-10, Budget: 1e7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestG > 1e-3 {
		t.Fatalf("custom objective did not optimize: best %v", res.BestG)
	}
}

// TestInitSweepsStaleTempFiles checks a crash's orphaned write-then-rename temp
// file is removed at startup while real checkpoints are untouched.
func TestInitSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "j000007"+ckptSuffix+".tmp-123456")
	keep := filepath.Join(dir, "j000007"+ckptSuffix)
	for _, f := range []string{stale, keep} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	newManager(t, Config{Store: openStore(t, "", dir)})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not swept: %v", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("real checkpoint removed: %v", err)
	}
}

// TestTerminalRetention checks the oldest terminal job records are evicted
// beyond the RetainTerminal bound while live jobs are untouched.
func TestTerminalRetention(t *testing.T) {
	m := newManager(t, Config{MaxConcurrent: 2, RetainTerminal: 3})
	var ids []string
	for s := int64(1); s <= 6; s++ {
		spec := smallSpec(s)
		spec.MaxIterations = 5
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if _, err := m.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.List()); got != 3 {
		t.Fatalf("retained %d terminal jobs, want 3", got)
	}
	if _, err := m.Get(ids[0]); err != ErrNotFound {
		t.Fatalf("oldest job should be evicted: %v", err)
	}
	if _, err := m.Get(ids[5]); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
}

// TestRecoverCollisionRejected checks a checkpoint whose ID was taken by a
// fresh submission is reported, and that a manager sharing the checkpoint
// dir reserves checkpointed IDs so the collision cannot happen organically.
func TestRecoverCollisionRejected(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"id":"j000001","spec":{"objective":"rosenbrock","dim":3},"snapshot":{"version":1,"dim":3}}`)
	if err := os.WriteFile(filepath.Join(dir, "j000001"+ckptSuffix), payload, 0o644); err != nil {
		t.Fatal(err)
	}

	// Organic path: a fresh submission on a dir holding j000001 gets j000002.
	m := newManager(t, Config{Store: openStore(t, "", dir)})
	spec := smallSpec(1)
	spec.MaxIterations = 5
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id == "j000001" {
		t.Fatal("fresh submission took a checkpointed ID")
	}
	// Let it finish: its checkpoint file must not vanish from the directory
	// while RecoverFrom below is reading it.
	if _, err := m.Wait(id); err != nil {
		t.Fatal(err)
	}

	// Forced collision (no store at New, so no reservation): adopting the
	// directory after a fresh submission took j000001 must report the
	// collision rather than silently dropping the run.
	m2 := newManager(t, Config{})
	if _, err := m2.Submit(spec); err != nil { // takes j000001
		t.Fatal(err)
	}
	st, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m2.RecoverFrom(st)
	if err == nil || !strings.Contains(err.Error(), "already taken") {
		t.Fatalf("collision not reported: %v", err)
	}
}

// TestSpecSizeCaps checks the HTTP-reachable size limits.
func TestSpecSizeCaps(t *testing.T) {
	m := newManager(t, Config{})
	if _, err := m.Submit(Spec{Objective: "rosenbrock", Dim: maxDim + 1, Sigma0: 1}); err == nil {
		t.Fatal("oversized Dim accepted")
	}
	if _, err := m.Submit(Spec{Objective: "rosenbrock", Dim: 3, Sigma0: 1, Workers: maxWorkers + 1}); err == nil {
		t.Fatal("oversized Workers accepted")
	}
}
