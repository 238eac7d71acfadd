package storetest

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/jobstore"
)

// memStore is a minimal known-correct model implementation: the suite must
// pass it, or the suite itself is wrong. Records live in a process-global
// map keyed by directory so "reopen the same dir" observes prior writes,
// mirroring how a durable store survives Close.
type memStore struct {
	dir    string
	mu     sync.Mutex
	closed bool
}

var (
	memMu   sync.Mutex
	memDirs = map[string]map[string][]byte{}
)

func openMem(dir string) (jobstore.Store, error) {
	memMu.Lock()
	defer memMu.Unlock()
	if memDirs[dir] == nil {
		memDirs[dir] = map[string][]byte{}
	}
	return &memStore{dir: dir}, nil
}

func (s *memStore) Put(id string, payload []byte) error {
	if err := jobstore.CheckID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storetest: mem store is closed")
	}
	memMu.Lock()
	defer memMu.Unlock()
	memDirs[s.dir][id] = append([]byte(nil), payload...)
	return nil
}

// PutLazy is Put: the model makes every write durable at once.
func (s *memStore) PutLazy(id string, payload []byte) error { return s.Put(id, payload) }

func (s *memStore) Delete(id string) error {
	if err := jobstore.CheckID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storetest: mem store is closed")
	}
	memMu.Lock()
	defer memMu.Unlock()
	delete(memDirs[s.dir], id)
	return nil
}

func (s *memStore) List() ([]jobstore.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("storetest: mem store is closed")
	}
	memMu.Lock()
	defer memMu.Unlock()
	recs := make([]jobstore.Record, 0, len(memDirs[s.dir]))
	for id, p := range memDirs[s.dir] {
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
