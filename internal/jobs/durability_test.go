package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/jobstore/storetest"
	"repro/internal/obs"
	"repro/internal/testfunc"
)

// faultyWAL opens a WAL store in a temp dir behind a fault wrapper. The
// manager given the wrapper owns and closes both.
func faultyWAL(t testing.TB) (*storetest.Faults, *jobstore.WALStore) {
	t.Helper()
	wal, err := jobstore.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return storetest.NewFaults(wal), wal
}

// within fails the test if f does not return within one second, or
// returns an error.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s blocked for 1s behind a finishing job's stalled delete", what)
	}
}

// TestFinishDoesNotHoldManagerLock: a finishing job drops its record with
// no manager lock held, so while job A's delete is stuck on the disk the
// rest of the shard goes on — a status read, a submit, and the next trace
// event of a running job B. Wait(A) still returns only after the drop.
func TestFinishDoesNotHoldManagerLock(t *testing.T) {
	st, wal := faultyWAL(t)
	hold := make(chan struct{})
	entered := st.Hold(storetest.OpDelete, 1, hold) // job a's drop: nothing else finishes
	m := newManager(t, Config{MaxConcurrent: 2, Store: st, TraceBuffer: 4096,
		Objectives: slowObjectives(time.Millisecond)})
	released := false
	release := func() {
		if !released {
			released = true
			close(hold)
		}
	}
	t.Cleanup(release) // runs before the manager's Close

	idB, err := m.SubmitWithID("b", slowSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, idB, StateRunning)
	// Never unsubscribed: the stream closes when the manager does, and an
	// unsubscribe would need the lock this test may find held.
	events, _, err := m.Subscribe(idB)
	if err != nil {
		t.Fatal(err)
	}

	// Submit a on its own goroutine: a job that finishes before its
	// admission record is durable has its drop issued by Submit itself.
	const idA = "a"
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		if _, err := m.SubmitWithID(idA, smallSpec(1)); err != nil {
			t.Error(err)
			return
		}
		m.Wait(idA)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job a never reached its delete")
	}

	within(t, "Get(b)", func() error {
		if s, err := m.Get(idB); err != nil || s.State != StateRunning {
			return fmt.Errorf("got %+v, %v; want running", s, err)
		}
		return nil
	})
	within(t, "Submit", func() error {
		_, err := m.Submit(slowSpec(3))
		return err
	})
	for drained := false; !drained; {
		select {
		case <-events:
		default:
			drained = true
		}
	}
	within(t, "job b's next trace event", func() error {
		for e := range events {
			if e.Type == "trace" {
				return nil
			}
		}
		return errors.New("the stream closed without a trace event")
	})

	select {
	case <-waited:
		t.Fatal("Wait(a) returned before a's record drop was issued")
	default:
	}
	release()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait(a) did not return after the drop")
	}
	recs, err := wal.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == idA {
			t.Fatal("Wait(a) returned while a's record is still listed")
		}
	}
}

// lossyStore models power loss at Close: a lazy write reaches the wrapped
// store only when a later Sync (a Put's included) flushes it, so everything
// after the last Sync is lost.
type lossyStore struct {
	jobstore.Store
	mu      sync.Mutex
	pending []func() error // guarded by mu
}

func (s *lossyStore) later(write func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, write)
	return nil
}

func (s *lossyStore) PutLazy(id string, payload []byte) error {
	payload = append([]byte(nil), payload...)
	return s.later(func() error { return s.Store.PutLazy(id, payload) })
}

func (s *lossyStore) Delete(id string) error {
	return s.later(func() error { return s.Store.Delete(id) })
}

func (s *lossyStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, write := range s.pending {
		if err := write(); err != nil {
			return err
		}
	}
	s.pending = nil
	return s.Store.Sync()
}

func (s *lossyStore) Put(id string, payload []byte) error {
	if err := s.PutLazy(id, payload); err != nil {
		return err
	}
	return s.Sync()
}

func (s *lossyStore) Close() error {
	s.mu.Lock()
	s.pending = nil
	s.mu.Unlock()
	return s.Store.Close()
}

// TestLostLazyWritesRecoverIdentically: a store that loses every write
// after its last Sync still recovers every job to the bits of an
// uninterrupted run — the one killed mid-run from an earlier snapshot than
// its last, and the one that had finished too, because its lost delete
// re-runs it.
func TestLostLazyWritesRecoverIdentically(t *testing.T) {
	slow := slowObjectives(time.Millisecond)
	finished := smallSpec(11)
	killed := smallSpec(12)
	killed.Objective = "slowrosen"
	killed.Restarts = 2
	killed.MaxIterations = 50
	specs := map[string]Spec{"done": finished, "killed": killed}

	ref := newManager(t, Config{MaxConcurrent: 2, Objectives: slow})
	want := map[string]*core.Result{}
	for id, spec := range specs {
		if _, err := ref.SubmitWithID(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	for id := range specs {
		res, err := ref.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = res
	}

	dir := t.TempDir()
	openWAL := func() jobstore.Store { return openStore(t, "wal", dir) }
	// recoverAll runs every stored job to completion in a fresh manager and
	// checks each result against the uninterrupted run.
	recoverAll := func(st jobstore.Store) {
		t.Helper()
		m, err := New(Config{MaxConcurrent: 2, Store: st, CheckpointEvery: 1, Objectives: slow})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close() // after done: the lost deletes leave both records
		ids, err := m.Recover()
		if err != nil || !reflect.DeepEqual(ids, []string{"done", "killed"}) {
			t.Fatalf("Recover = %v, %v; want [done killed]", ids, err)
		}
		for _, id := range ids {
			got, err := m.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[id]) {
				t.Fatalf("job %s recovered after lost lazy writes diverged:\nrecovered     %+v\nuninterrupted %+v", id, got, want[id])
			}
		}
	}

	// progress reads the killed job's iterations over all legs; the job
	// must still be running.
	progress := func(m *Manager) int {
		t.Helper()
		s, err := m.Get("killed")
		if err != nil || s.State.Terminal() {
			t.Fatalf("job could not be caught mid-run: %+v, %v", s, err)
		}
		return s.Iterations
	}
	// runTo waits until the killed job has made at least n iterations.
	runTo := func(m *Manager, n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); progress(m) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the killed job never reached %d iterations", n)
			}
		}
	}

	// First life: the killed job starts, the other job's admission (the
	// last Sync) makes the killed job's snapshots so far durable, the other
	// job finishes, and the killed job runs on until Close. The finished
	// job's delete and the killed job's later snapshots are lost.
	m1, err := New(Config{MaxConcurrent: 2, Store: &lossyStore{Store: openWAL()}, CheckpointEvery: 1, Objectives: slow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.SubmitWithID("killed", killed); err != nil {
		t.Fatal(err)
	}
	runTo(m1, 5)
	if _, err := m1.SubmitWithID("done", finished); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Wait("done"); err != nil {
		t.Fatal(err)
	}
	synced := progress(m1)
	runTo(m1, synced+5)
	m1.Close()

	// Both records survived; the killed job's is older than its last
	// snapshot.
	st := openWAL()
	recs, err := st.List()
	if err != nil || len(recs) != 2 {
		t.Fatalf("stored records after the first life = %d, %v; want 2", len(recs), err)
	}
	for _, r := range recs {
		var ckpt checkpointFile
		if err := json.Unmarshal(r.Payload, &ckpt); err != nil {
			t.Fatal(err)
		}
		if r.ID != "killed" || ckpt.Snapshot == nil {
			continue
		}
		it := ckpt.Snapshot.Iterations
		if rs := ckpt.Snapshot.Restart; rs != nil && rs.Total != nil {
			it += rs.Total.Iterations
		}
		if it > synced {
			t.Fatalf("the killed job's record holds iteration %d, past the last Sync at %d", it, synced)
		}
	}

	// Second life loses its lazy writes too; the third keeps them, and its
	// deletes finally empty the store.
	recoverAll(&lossyStore{Store: st})
	recoverAll(openWAL())
	st = openWAL()
	defer st.Close()
	if recs, err := st.List(); err != nil || len(recs) != 0 {
		t.Fatalf("records after the last recovery = %v, %v; want none", recs, err)
	}
}

// TestWALFsyncsPerJob: a WAL-backed job pays one fsync, for its admission.
// Its admission record, snapshots and completion delete are appended
// lazily and ride on an fsync (the admission's own Sync, or a later one),
// so N sequential jobs and the final Close cost at most N+1.
func TestWALFsyncsPerJob(t *testing.T) {
	const n = 5
	fsyncs := obs.Default().Counter("jobstore_fsyncs_total")
	lazy := obs.Default().Counter("jobstore_lazy_writes_total")
	dir := t.TempDir()
	m, err := New(Config{MaxConcurrent: 1, Store: openStore(t, "wal", dir), CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	fsyncs0, lazy0, ckpt0 := fsyncs.Value(), lazy.Value(), mCkptWrites.Value()
	for i := 0; i < n; i++ {
		id, err := m.Submit(smallSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	if got := mCkptWrites.Value() - ckpt0; got < n {
		t.Fatalf("%d snapshots over %d jobs; every job must write one", got, n)
	}
	if got := lazy.Value() - lazy0; got < 3*n {
		t.Fatalf("%d lazy writes over %d jobs; want an admission, a snapshot and a delete each", got, n)
	}
	if got := fsyncs.Value() - fsyncs0; got > n+1 {
		t.Fatalf("%d fsyncs over %d jobs and a Close; want at most %d", got, n, n+1)
	}
	// Close made the lazy deletes durable.
	st, err := jobstore.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if recs, err := st.List(); err != nil || len(recs) != 0 {
		t.Fatalf("records after every job finished = %d, %v; want none", len(recs), err)
	}
}

// BenchmarkAdmission prices the admission path on a WAL store, one job at
// a time: started_us is the mean time from the Submit call to the job's
// first objective evaluation, ack_us the mean time to Submit's return. The
// job runs while its admission fsync is in flight, so started_us reads
// below ack_us.
func BenchmarkAdmission(b *testing.B) {
	var startedAt atomic.Int64
	m, err := New(Config{MaxConcurrent: 1, Store: openStore(b, "wal", b.TempDir()),
		Objectives: map[string]func([]float64) float64{"stamped": func(x []float64) float64 {
			startedAt.CompareAndSwap(0, time.Now().UnixNano())
			return testfunc.Rosenbrock(x)
		}}})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	spec := smallSpec(1)
	spec.Objective = "stamped"
	var started, acked time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		startedAt.Store(0)
		t0 := time.Now()
		id, err := m.Submit(spec)
		acked += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Wait(id); err != nil {
			b.Fatal(err)
		}
		started += time.Duration(startedAt.Load() - t0.UnixNano())
	}
	b.ReportMetric(float64(started)/float64(b.N)/1e3, "started_us")
	b.ReportMetric(float64(acked)/float64(b.N)/1e3, "ack_us")
}
