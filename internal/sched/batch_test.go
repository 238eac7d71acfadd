package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBatchPriorityOrder verifies tasks dispatch in ascending priority
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
	want := []int{1, 3, 4, 2, 0} // prio 0 tasks in submission order, then 1, 2, 3
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

// TestBatchContextCancel verifies a context cancellation mid-batch stops
// dispatch and returns ctx.Err().
func TestBatchContextCancel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	b := s.NewBatch()

	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var ran atomic.Int32
	// Two blockers occupy both workers, then many pending tasks.
	for i := 0; i < 2; i++ {
		b.Submit(0, func() {
			started <- struct{}{}
			<-release
		})
	}
	for i := 0; i < 8; i++ {
		b.Submit(1, func() { ran.Add(1) })
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
	if n := ran.Load(); n != 0 {
		t.Errorf("%d pending tasks ran after the context was canceled", n)
	}
}

// TestBatchPanicPropagates verifies a task panic re-raises on the Wait
// caller after the batch drains, matching DoN.
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
