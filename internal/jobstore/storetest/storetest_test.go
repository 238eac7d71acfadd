package storetest

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// memStore is a minimal known-correct model implementation: the suite must
// pass it, or the suite itself is wrong. Records live in memory and every
// write rewrites them whole into one file in the store's directory, so a
// reopen (or a copy of the directory) observes exactly the writes so far.
type memStore struct {
	path   string
	mu     sync.Mutex
	recs   map[string][]byte // guarded by mu
	closed bool              // guarded by mu
}

func openMem(dir string) (jobstore.Store, error) {
	s := &memStore{path: filepath.Join(dir, "mem.json"), recs: map[string][]byte{}}
	data, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	return s, json.Unmarshal(data, &s.recs)
}

// write applies one change and persists the whole record set.
func (s *memStore) write(id string, change func()) error {
	if err := jobstore.CheckID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storetest: mem store is closed")
	}
	change()
	data, err := json.Marshal(s.recs)
	if err != nil {
		return err
	}
	return os.WriteFile(s.path, data, 0o644)
}

func (s *memStore) Put(id string, payload []byte) error {
	return s.write(id, func() { s.recs[id] = append([]byte{}, payload...) })
}

// PutLazy is Put: the model makes every write durable at once.
func (s *memStore) PutLazy(id string, payload []byte) error { return s.Put(id, payload) }

func (s *memStore) Delete(id string) error {
	return s.write(id, func() { delete(s.recs, id) })
}

// Sync has nothing to do: every write is already durable.
func (s *memStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storetest: mem store is closed")
	}
	return nil
}

func (s *memStore) List() ([]jobstore.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("storetest: mem store is closed")
	}
	recs := make([]jobstore.Record, 0, len(s.recs))
	for id, p := range s.recs {
		recs = append(recs, jobstore.Record{ID: id, Payload: append([]byte(nil), p...)})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

func (s *memStore) Kind() string { return "mem" }

func (s *memStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// TestSuiteAgainstModelStore runs the full conformance suite against the
// in-memory model. A correct implementation must pass every case, so a
// failure here means a suite bug, not a store bug.
func TestSuiteAgainstModelStore(t *testing.T) {
	Run(t, Harness{Open: openMem})
}

// TestSuiteCatchesBrokenStore pins the other direction: the suite must
// reject an implementation that violates the contract. unsortedStore
// returns records in reverse order; expect() must notice.
func TestSuiteCatchesBrokenStore(t *testing.T) {
	st, err := openMem(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, id := range []string{"a", "b", "c"} {
		if err := st.Put(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	// expect() reports through Fatalf, which exits its goroutine — run the
	// probe on its own goroutine so Goexit ends only the probe.
	probe := &testing.T{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		expect(probe, reversedStore{st}, map[string][]byte{
			"a": []byte("a"), "b": []byte("b"), "c": []byte("c"),
		})
	}()
	<-done
	if !probe.Failed() {
		t.Fatal("expect() accepted an unsorted List — the suite would miss a broken store")
	}
}

// reversedStore breaks the sorted-List contract on purpose.
type reversedStore struct{ jobstore.Store }

func (r reversedStore) List() ([]jobstore.Record, error) {
	recs, err := r.Store.List()
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs, err
}

// TestFaults pins the fault wrapper: an armed call fails or waits, the
// calls around it pass through, a failed call never reaches the store, and
// a Put counts as its own PutLazy and Sync.
func TestFaults(t *testing.T) {
	errDisk := errors.New("disk full")
	newFaults := func(t *testing.T) *Faults {
		st, err := openMem(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return NewFaults(st)
	}
	t.Run("fail call n", func(t *testing.T) {
		for _, op := range []Op{OpPut, OpPutLazy, OpSync, OpDelete} {
			f := newFaults(t)
			f.Fail(op, 2, errDisk)
			call := map[Op]func() error{
				OpPut:     func() error { return f.Put("a", []byte("x")) },
				OpPutLazy: func() error { return f.PutLazy("b", []byte("y")) },
				OpSync:    f.Sync,
				OpDelete:  func() error { return f.Delete("c") },
			}[op]
			for n, want := range []error{nil, errDisk, nil} {
				if err := call(); !errors.Is(err, want) {
					t.Fatalf("op %d call %d = %v, want %v", op, n+1, err, want)
				}
			}
			if got := f.Calls(op); got != 3 {
				t.Fatalf("op %d: %d calls counted, want 3", op, got)
			}
		}
	})
	t.Run("failed call does not reach the store", func(t *testing.T) {
		f := newFaults(t)
		f.Fail(OpSync, 1, errDisk)
		if err := f.Put("a", []byte("x")); !errors.Is(err, errDisk) {
			t.Fatalf("Put with a failing Sync = %v, want %v", err, errDisk)
		}
		f.Fail(OpDelete, 1, errDisk)
		if err := f.Delete("a"); !errors.Is(err, errDisk) {
			t.Fatalf("failed Delete = %v", err)
		}
		// Put's PutLazy landed before its Sync failed; the Delete never ran.
		expect(t, f, map[string][]byte{"a": []byte("x")})
		f.Fail(OpPut, 2, errDisk)
		if err := f.Put("b", []byte("y")); !errors.Is(err, errDisk) {
			t.Fatalf("failed Put = %v", err)
		}
		if got := []int{f.Calls(OpPut), f.Calls(OpPutLazy), f.Calls(OpSync)}; got[0] != 2 || got[1] != 1 || got[2] != 1 {
			t.Fatalf("Put, PutLazy, Sync calls = %v, want [2 1 1]", got)
		}
	})
	t.Run("hold call n", func(t *testing.T) {
		f := newFaults(t)
		release := make(chan struct{})
		reached := f.Hold(OpSync, 1, release)
		done := make(chan error, 1)
		go func() { done <- f.Put("a", []byte("x")) }()
		<-reached
		select {
		case err := <-done:
			t.Fatalf("held Put returned %v before its release", err)
		case <-time.After(10 * time.Millisecond):
		}
		expect(t, f, map[string][]byte{"a": []byte("x")})
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("released Put: %v", err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("unarmed Sync: %v", err)
		}
	})
}
