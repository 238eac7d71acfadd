package storetest

import (
	"sync"

	"repro/internal/jobstore"
)

// Op names a Store method a Faults wrapper can fault.
type Op int

// The faultable methods.
const (
	OpPut Op = iota
	OpPutLazy
	OpSync
	OpDelete
	numOps
)

// Faults wraps a Store and injects faults into the layer above it: call n
// (counting from 1, per method) of Put, PutLazy, Sync or Delete can fail
// with a given error, or be held until a channel is closed. A failed call
// never reaches the wrapped store. Its Put is its own PutLazy followed by
// its own Sync, as the Store contract defines Put, so every Put also counts
// one PutLazy and one Sync call, and a Sync fault also hits a Put.
type Faults struct {
	jobstore.Store

	mu    sync.Mutex
	calls [numOps]int           // guarded by mu
	rules [numOps]map[int]fault // guarded by mu
}

// fault is what one armed call does: wait for release (when held), then
// fail with err (when set).
type fault struct {
	err     error
	reached chan struct{}
	release <-chan struct{}
}

// NewFaults wraps st with no fault armed.
func NewFaults(st jobstore.Store) *Faults {
	return &Faults{Store: st}
}

// Fail makes call n of op return err without reaching the wrapped store.
func (f *Faults) Fail(op Op, n int, err error) {
	f.arm(op, n, fault{err: err})
}

// Hold makes call n of op wait until release is closed, then proceed. The
// returned channel is closed when the call arrives.
func (f *Faults) Hold(op Op, n int, release <-chan struct{}) <-chan struct{} {
	reached := make(chan struct{})
	f.arm(op, n, fault{reached: reached, release: release})
	return reached
}

// Calls reports how many calls of op the wrapper has seen.
func (f *Faults) Calls(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

func (f *Faults) arm(op Op, n int, r fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rules[op] == nil {
		f.rules[op] = make(map[int]fault)
	}
	f.rules[op][n] = r
}

// enter counts one call of op and applies its fault, if one is armed.
func (f *Faults) enter(op Op) error {
	f.mu.Lock()
	f.calls[op]++
	r, ok := f.rules[op][f.calls[op]]
	f.mu.Unlock()
	if !ok {
		return nil
	}
	if r.reached != nil {
		close(r.reached)
		<-r.release
	}
	return r.err
}

// Put implements jobstore.Store: PutLazy, then Sync, both through the
// wrapper.
func (f *Faults) Put(id string, payload []byte) error {
	if err := f.enter(OpPut); err != nil {
		return err
	}
	if err := f.PutLazy(id, payload); err != nil {
		return err
	}
	return f.Sync()
}

// PutLazy implements jobstore.Store.
func (f *Faults) PutLazy(id string, payload []byte) error {
	if err := f.enter(OpPutLazy); err != nil {
		return err
	}
	return f.Store.PutLazy(id, payload)
}

// Sync implements jobstore.Store.
func (f *Faults) Sync() error {
	if err := f.enter(OpSync); err != nil {
		return err
	}
	return f.Store.Sync()
}

// Delete implements jobstore.Store.
func (f *Faults) Delete(id string) error {
	if err := f.enter(OpDelete); err != nil {
		return err
	}
	return f.Store.Delete(id)
}
