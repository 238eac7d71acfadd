package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// blockingDeleteStore stalls the Delete of one record until release is
// closed, and reports on entered when the stall begins.
type blockingDeleteStore struct {
	jobstore.Store
	id      string
	entered chan struct{}
	release chan struct{}
}

func (s *blockingDeleteStore) Delete(id string) error {
	if id == s.id {
		close(s.entered)
		<-s.release
	}
	return s.Store.Delete(id)
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
	wal, err := jobstore.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &blockingDeleteStore{Store: wal, id: "a", entered: make(chan struct{}), release: make(chan struct{})}
	m := newManager(t, Config{MaxConcurrent: 2, Store: st, TraceBuffer: 4096,
		Objectives: slowObjectives(time.Millisecond)})
	released := false
	release := func() {
		if !released {
			released = true
			close(st.release)
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

	idA, err := m.SubmitWithID("a", smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		m.Wait(idA)
	}()
	select {
	case <-st.entered:
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

// lossyStore models power loss right after the last fsync: every lazy
// write (snapshots, completion deletes) is lost, only admissions persist.
type lossyStore struct{ jobstore.Store }

func (lossyStore) PutLazy(string, []byte) error { return nil }
func (lossyStore) Delete(string) error          { return nil }

// TestLostLazyWritesRecoverIdentically: a store that loses every lazy
// write still recovers every job to the bits of an uninterrupted run — the
// one killed mid-run from its spec, and the one that had finished too,
// because its lost delete re-runs it.
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
	openStore := func() jobstore.Store {
		st, err := jobstore.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
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

	// First life: one job finishes, the other is killed mid-run.
	m1, err := New(Config{MaxConcurrent: 1, Store: lossyStore{openStore()}, CheckpointEvery: 1, Objectives: slow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.SubmitWithID("done", finished); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Wait("done"); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.SubmitWithID("killed", killed); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := m1.Get("killed")
		if err != nil {
			t.Fatal(err)
		}
		if s.Iterations >= 5 {
			break
		}
		if s.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job could not be caught mid-run: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()

	// Only the admissions survived: two spec-only records.
	st := openStore()
	recs, err := st.List()
	if err != nil || len(recs) != 2 {
		t.Fatalf("stored records after the first life = %d, %v; want 2", len(recs), err)
	}
	for _, r := range recs {
		var ckpt checkpointFile
		if err := json.Unmarshal(r.Payload, &ckpt); err != nil {
			t.Fatal(err)
		}
		if ckpt.Snapshot != nil {
			t.Fatalf("record %s holds a snapshot the lossy store should have lost", r.ID)
		}
	}

	// Second life loses its lazy writes too; the third keeps them, and its
	// deletes finally empty the store.
	recoverAll(lossyStore{st})
	recoverAll(openStore())
	st = openStore()
	defer st.Close()
	if recs, err := st.List(); err != nil || len(recs) != 0 {
		t.Fatalf("records after the last recovery = %v, %v; want none", recs, err)
	}
}

// TestWALFsyncsPerJob: a WAL-backed job pays one fsync, for its admission.
// Its snapshots and its completion delete ride on later fsyncs, so N
// sequential jobs and the final Close cost at most N+1.
func TestWALFsyncsPerJob(t *testing.T) {
	const n = 5
	fsyncs := obs.Default().Counter("jobstore_fsyncs_total")
	lazy := obs.Default().Counter("jobstore_lazy_writes_total")
	dir := t.TempDir()
	m, err := New(Config{MaxConcurrent: 1, CheckpointDir: dir, StoreKind: "wal", CheckpointEvery: 20})
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
	if got := lazy.Value() - lazy0; got < 2*n {
		t.Fatalf("%d lazy writes over %d jobs; want a snapshot and a delete each", got, n)
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
