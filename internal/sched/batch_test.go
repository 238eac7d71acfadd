package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBatchPriorityOrder verifies entries dispatch in ascending priority
// (stable within a priority) on a serial scheduler, where dispatch order is
// exactly execution order.
func TestBatchPriorityOrder(t *testing.T) {
	s := New(Config{Workers: 1})
	b := s.NewBatch()
	var got []int
	for i, prio := range []int{3, 0, 2, 0, 1} {
		i := i
		b.Submit(prio, func() { got = append(got, i) })
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 2, 0} // prio 0 entries in submission order, then 1, 2, 3
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

// TestBatchCancelEntry verifies a canceled entry never runs and the rest of
// the batch completes, at both worker counts.
func TestBatchCancelEntry(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := New(Config{Workers: workers})
		b := s.NewBatch()
		var ran atomic.Int32
		e := b.Submit(1, func() { t.Error("canceled entry ran") })
		for i := 0; i < 5; i++ {
			b.Submit(2, func() { ran.Add(1) })
		}
		if !e.Cancel() {
			t.Fatal("Cancel before Wait returned false")
		}
		if !e.Canceled() {
			t.Fatal("Canceled() false after Cancel")
		}
		if err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 5 {
			t.Fatalf("workers=%d: %d live entries ran, want 5", workers, ran.Load())
		}
		if e.Cancel() {
			t.Error("second Cancel reported a fresh withdrawal")
		}
		s.Close()
	}
}

// TestBatchContextCancel verifies a context cancellation mid-batch withdraws
// the pending entries (reported via Canceled) and returns ctx.Err().
func TestBatchContextCancel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	b := s.NewBatch()

	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var entries []*Entry
	// Two blockers occupy both workers, then many pending entries.
	for i := 0; i < 2; i++ {
		entries = append(entries, b.Submit(0, func() {
			started <- struct{}{}
			<-release
		}))
	}
	for i := 0; i < 8; i++ {
		entries = append(entries, b.Submit(1, func() {}))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		err = b.Wait(ctx)
	}()
	<-started
	<-started
	cancel()
	close(release)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	canceled := 0
	for _, e := range entries {
		if e.Canceled() {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("no pending entries were withdrawn on context cancellation")
	}
}

// TestBatchPanicPropagates verifies a task panic re-raises on the Wait
// caller after the batch drains, matching DoN.
// TestBatchAbortEntryAccountedOnce is the waste-accounting regression test
// at the sched level: when a batch aborts mid-flight, every entry must end
// in exactly one of two states — executed once with Canceled() false (a
// worker picked it up), or never executed with Canceled() true (withdrawn) —
// and never both or neither. Callers that bill discarded work (the
// speculative driver's Result.SpeculativeWaste) rely on this to count each
// entry exactly once.
func TestBatchAbortEntryAccountedOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := New(Config{Workers: workers})
		defer s.Close()
		for trial := 0; trial < 20; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			b := s.NewBatch()
			const n = 12
			runs := make([]atomic.Int32, n)
			entries := make([]*Entry, n)
			for i := 0; i < n; i++ {
				i := i
				entries[i] = b.Submit(i%3, func() {
					runs[i].Add(1)
					if runs[i].Load() == 1 && i == trial%n {
						// Abort while this entry is executing: it was picked
						// up by a worker, so it must count as run, not as
						// canceled.
						cancel()
					}
				})
			}
			err := b.Wait(ctx)
			if err != nil && err != context.Canceled {
				t.Fatal(err)
			}
			cancel()
			for i, e := range entries {
				ran := int(runs[i].Load())
				if ran > 1 {
					t.Fatalf("workers=%d trial=%d: entry %d executed %d times", workers, trial, i, ran)
				}
				if ran == 1 && e.Canceled() {
					t.Fatalf("workers=%d trial=%d: entry %d both executed and Canceled — a waste accountant would bill it twice", workers, trial, i)
				}
				if ran == 0 && !e.Canceled() {
					t.Fatalf("workers=%d trial=%d: entry %d neither executed nor Canceled — a waste accountant would miss it", workers, trial, i)
				}
			}
		}
	}
}

func TestBatchPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := New(Config{Workers: workers})
		b := s.NewBatch()
		b.Submit(0, func() { panic("boom") })
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			b.Wait(context.Background())
			t.Errorf("workers=%d: Wait returned instead of panicking", workers)
		}()
		s.Close()
	}
}

// TestBatchEmptyAndReuse verifies the edge contracts: an empty batch returns
// the context error, and a second Wait panics (single-use).
func TestBatchEmptyAndReuse(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.NewBatch().Wait(context.Background()); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	b := s.NewBatch()
	b.Submit(0, func() {})
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Wait did not panic")
		}
	}()
	b.Wait(context.Background())
}
