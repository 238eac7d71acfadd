package sched

import (
	"cmp"
	"context"
	"slices"
)

// Batch collects prioritized tasks and executes them as one joined DoN
// batch: dispatch order is ascending priority, submission order within a
// priority. It is single-use: Submit tasks, then Wait exactly once. The
// zero value is not usable; use Scheduler.NewBatch.
type Batch struct {
	s      *Scheduler
	tasks  []batchTask
	waited bool
}

// batchTask is one submitted task and its dispatch priority.
type batchTask struct {
	prio int
	fn   func()
}

// NewBatch starts an empty batch on the scheduler, charged to the ""
// tenant's fair-share queue.
func (s *Scheduler) NewBatch() *Batch { return &Batch{s: s} }

// Submit adds a task with the given dispatch priority (lower runs earlier).
// Tasks with equal priority dispatch in submission order. Submit must not be
// called after Wait.
func (b *Batch) Submit(priority int, fn func()) {
	if b.waited {
		panic("sched: Batch.Submit after Wait")
	}
	b.tasks = append(b.tasks, batchTask{prio: priority, fn: fn})
}

// Wait sorts the tasks by priority and runs them through DoN, with DoN's
// contract: an empty batch returns ctx.Err(), a context that ends mid-batch
// stops dispatch and returns ctx.Err(), and a task panic is re-raised on the
// caller after the batch drains.
func (b *Batch) Wait(ctx context.Context) error {
	if b.waited {
		panic("sched: Batch.Wait called twice")
	}
	b.waited = true
	slices.SortStableFunc(b.tasks, func(x, y batchTask) int { return cmp.Compare(x.prio, y.prio) })
	return b.s.DoN(ctx, len(b.tasks), func(i int) { b.tasks[i].fn() })
}
