package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryTask(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	var n atomic.Int64
	if err := s.DoN(context.Background(), 100, func(int) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestDoNIndices(t *testing.T) {
	s := New(Config{Workers: 3})
	defer s.Close()
	seen := make([]atomic.Int64, 32)
	if err := s.DoN(context.Background(), 32, func(i int) { seen[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, seen[i].Load())
		}
	}
}

func TestConcurrencyBounded(t *testing.T) {
	const workers = 3
	s := New(Config{Workers: workers})
	defer s.Close()
	var cur, max atomic.Int64
	if err := s.DoN(context.Background(), 50, func(int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", got, workers)
	}
}

func TestSerialWorkerRunsInCaller(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	order := make([]int, 0, 5)
	if err := s.DoN(context.Background(), 5, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order: %v", order)
		}
	}
}

func TestCancelStopsDispatch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	var once sync.Once
	err := s.DoN(ctx, 100, func(int) {
		started.Add(1)
		once.Do(cancel) // cancel as soon as the first task runs
		time.Sleep(5 * time.Millisecond)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 100 {
		t.Fatalf("all %d tasks dispatched despite cancellation", n)
	}
}

func TestCanceledBeforeDispatch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int64
	if err := s.DoN(ctx, 4, func(int) { n.Add(1) }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDoAfterClose(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.DoN(context.Background(), 2, func(int) {}); err != nil { // start workers
		t.Fatal(err)
	}
	s.Close()
	if err := s.DoN(context.Background(), 2, func(int) {}); err != ErrClosed {
		t.Fatalf("DoN after Close: err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := New(Config{Workers: 2})
	s.Close()
	s.Close()
}

func TestPanicPropagates(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	_ = s.DoN(context.Background(), 8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Fatal("DoN returned instead of panicking")
}

func TestDefaultWorkersPositive(t *testing.T) {
	if w := New(Config{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if Shared().Workers() < 1 {
		t.Fatal("shared scheduler has no workers")
	}
}

func TestStreamSeedDeterministicAndDistinct(t *testing.T) {
	if StreamSeed(7, 3) != StreamSeed(7, 3) {
		t.Fatal("StreamSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for base := int64(0); base < 8; base++ {
		for stream := int64(0); stream < 256; stream++ {
			s := StreamSeed(base, stream)
			if seen[s] {
				t.Fatalf("seed collision at base=%d stream=%d", base, stream)
			}
			seen[s] = true
		}
	}
}

func TestSerialDoAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if err := s.DoN(context.Background(), 1, func(int) {}); err != ErrClosed {
		t.Fatalf("serial DoN after Close: err = %v, want ErrClosed", err)
	}
}

// TestCanceledDispatchesNothingWarmPool pins the cancel/dispatch ordering: a
// pool with parked workers must not hand a single task out under an
// already-canceled context (the select alone would race; the pre-check
// decides it).
func TestCanceledDispatchesNothingWarmPool(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	_ = s.DoN(context.Background(), 8, func(int) {}) // warm the workers
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for i := 0; i < 2000; i++ {
		if err := s.DoN(ctx, 4, func(int) { ran.Add(1) }); err != context.Canceled {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran under a pre-canceled context", n)
	}
}
