package sched

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Entry dispatch states.
const (
	entryPending int32 = iota
	entryDispatched
	entryCanceled
)

// Entry is one schedulable unit inside a Batch: a task plus a dispatch
// priority and a cancellation handle. Entries exist so a caller that
// speculatively enqueues work (the speculative simplex step enqueues every
// candidate move before knowing which will be accepted) can (a) order the
// dispatch so the evaluations most likely to be needed run first when the
// pool is narrower than the batch, and (b) withdraw entries that have not
// started yet instead of paying for them.
type Entry struct {
	fn    func()
	prio  int
	seq   int
	state atomic.Int32
}

// Cancel withdraws the entry if it has not been dispatched yet, returning
// whether the withdrawal won. A canceled entry's task never runs; an entry
// that was already dispatched (or finished) is unaffected and Cancel reports
// false. Cancel is safe to call concurrently with Wait, with one caveat: a
// false return means the entry was dispatched at that moment, but if the
// batch is then aborted (context cancellation, scheduler close) while the
// entry's handoff to a worker is still pending, Wait withdraws it after all
// — Canceled() is the authoritative post-Wait answer to "did it run".
func (e *Entry) Cancel() bool {
	return e.state.CompareAndSwap(entryPending, entryCanceled)
}

// Canceled reports whether the entry was withdrawn before dispatch.
func (e *Entry) Canceled() bool { return e.state.Load() == entryCanceled }

// Batch collects prioritized, cancellable entries and executes them as one
// joined unit on the scheduler. It is single-use: Submit entries, then Wait
// exactly once. The zero value is not usable; use Scheduler.NewBatch.
type Batch struct {
	s       *Scheduler
	tenant  string
	entries []*Entry
	waited  bool
}

// NewBatch starts an empty batch on the scheduler, charged to the ""
// tenant's fair-share queue.
func (s *Scheduler) NewBatch() *Batch { return &Batch{s: s} }

// NewBatchAs starts an empty batch charged to the named tenant's fair-share
// queue.
func (s *Scheduler) NewBatchAs(tenant string) *Batch {
	return &Batch{s: s, tenant: tenant}
}

// Submit adds a task with the given dispatch priority (lower runs earlier)
// and returns its cancellation handle. Entries with equal priority dispatch
// in submission order. Submit must not be called after Wait.
func (b *Batch) Submit(priority int, fn func()) *Entry {
	if b.waited {
		panic("sched: Batch.Submit after Wait")
	}
	e := &Entry{fn: fn, prio: priority, seq: len(b.entries)}
	b.entries = append(b.entries, e)
	return e
}

// Wait dispatches every live entry in priority order and blocks until all
// dispatched tasks have finished. Entries canceled before dispatch are
// skipped. An already-canceled context dispatches nothing; if ctx ends
// mid-batch, the remaining pending entries are withdrawn (their Canceled()
// reports true), already-running tasks finish, and ctx.Err() is returned. A
// panic in any task is re-raised on the calling goroutine after the batch
// drains.
func (b *Batch) Wait(ctx context.Context) error {
	if b.waited {
		panic("sched: Batch.Wait called twice")
	}
	b.waited = true
	if len(b.entries) == 0 {
		return ctx.Err()
	}
	mInflight.Inc()
	start := time.Now() //optlint:nondeterministic-ok batch-latency metric, never reaches a sample
	err := b.wait(ctx)
	mBatchSeconds.Observe(time.Since(start).Seconds()) //optlint:nondeterministic-ok batch-latency metric, never reaches a sample
	mBatches.Inc()
	mTasks.Add(int64(len(b.entries)))
	mInflight.Dec()
	return err
}

// wait is the dispatch-and-join body behind Wait.
func (b *Batch) wait(ctx context.Context) error {
	order := make([]*Entry, len(b.entries))
	copy(order, b.entries)
	sort.SliceStable(order, func(i, j int) bool { return order[i].prio < order[j].prio })

	s := b.s
	if s.workers == 1 || len(order) == 1 {
		for _, e := range order {
			if err := ctx.Err(); err != nil {
				cancelRemaining(order)
				return err
			}
			select {
			case <-s.quit:
				cancelRemaining(order)
				return ErrClosed
			default:
			}
			if !e.state.CompareAndSwap(entryPending, entryDispatched) {
				continue // canceled
			}
			e.fn()
		}
		return nil
	}

	if err := ctx.Err(); err != nil {
		cancelRemaining(order)
		return err
	}
	s.start()
	var (
		wg        sync.WaitGroup
		box       panicBox
		withdrawn atomic.Bool
	)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancelRemaining(order)
		return ErrClosed
	}
	q := s.queueForLocked(b.tenant)
	for _, e := range order {
		if e.state.Load() == entryCanceled {
			continue // already withdrawn; skip the queue round-trip
		}
		e := e
		wg.Add(1)
		s.enqueueLocked(q, func() {
			defer wg.Done()
			if ctx.Err() != nil {
				// The batch was aborted while this entry sat in the queue:
				// it never reached dispatch, so it is withdrawn —
				// Canceled() must report true for it like any other unrun
				// entry. CAS so a concurrent Cancel is not overridden.
				if e.state.CompareAndSwap(entryPending, entryCanceled) {
					withdrawn.Store(true)
				}
				return
			}
			if !e.state.CompareAndSwap(entryPending, entryDispatched) {
				return // canceled while queued
			}
			defer func() {
				if r := recover(); r != nil {
					box.capture(r)
				}
			}()
			e.fn()
		})
	}
	q.mDepth.Set(float64(q.n))
	s.mu.Unlock()
	s.cond.Broadcast()
	wg.Wait()
	box.mu.Lock()
	val, set := box.val, box.set
	box.mu.Unlock()
	if set {
		panic(val)
	}
	if withdrawn.Load() {
		return ctx.Err()
	}
	return nil
}

// cancelRemaining withdraws every entry still pending, so an aborted batch
// leaves a consistent record of what ran and what did not.
func cancelRemaining(order []*Entry) {
	for _, e := range order {
		e.state.CompareAndSwap(entryPending, entryCanceled)
	}
}
