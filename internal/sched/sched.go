// Package sched provides the concurrent batch-evaluation engine shared by the
// sampling backends: a context-aware worker pool over which a batch of
// objective-sampling requests is fanned out, executed concurrently, and
// joined.
//
// The paper's central performance claim is that the d+3 concurrent vertex
// evaluations hide the sampling cost of the stochastic objective (section
// 3.1); parallel SPSA and parallel knowledge-gradient batch optimization make
// the same argument for their batch sizes. sched is where that concurrency
// actually happens in-process: sim.LocalSpace dispatches each sampled batch
// whose increments carry a simulation cost through a Scheduler.
//
// Determinism is delegated to the callers via StreamSeed: every sampled point
// owns an independent RNG stream whose seed is derived from (space seed,
// point index), so the noise a point observes is a pure function of its
// identity and its sampling history — never of goroutine interleaving. Serial
// and concurrent execution of the same batch sequence therefore produce
// bitwise-identical results.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrClosed is returned by DoN and Batch.Wait when the scheduler has been
// closed.
var ErrClosed = errors.New("sched: scheduler is closed")

// Pool metrics (obs registry). Handles are resolved once here; the hot
// paths only touch atomics. Batch-level granularity keeps the per-draw
// cost at ~zero: one counter add and one histogram observation per
// batch, never per task.
var (
	mBatches = obs.Default().Counter("sched_batches_total",
		"evaluation batches dispatched through DoN or Batch.Wait")
	mTasks = obs.Default().Counter("sched_tasks_total",
		"individual evaluation tasks submitted across all batches")
	mBatchSeconds = obs.Default().Histogram("sched_batch_seconds", nil,
		"wall-clock latency of one evaluation batch, dispatch to join")
	mBusy = obs.Default().Gauge("sched_busy_workers",
		"goroutines currently executing batch tasks (the caller itself on the serial path)")
	mInflight = obs.Default().Gauge("sched_inflight_batches",
		"batches currently dispatching or draining")
)

// Config configures a Scheduler.
type Config struct {
	// Workers is the maximum number of batch tasks executing concurrently.
	// Zero (or negative) selects runtime.GOMAXPROCS(0). Workers == 1 degrades
	// to serial in-caller execution with no goroutines at all, which is the
	// reference semantics every concurrent run must reproduce bitwise.
	Workers int

	// Policy selects how queued tasks are ordered across tenants: FairShare
	// (the zero value) drains per-tenant queues by weighted stride
	// round-robin; FIFO is the single-global-queue baseline.
	Policy Policy
}

// Scheduler executes batches of evaluation requests on a bounded pool of
// worker goroutines. The zero value is not usable; use New. A Scheduler is
// safe for concurrent use by multiple goroutines, though the sampling
// backends serialize batches themselves (one batch per simplex decision).
//
// Concurrent submissions land in per-tenant run queues (see DoNAs; the
// untenanted entry points use the "" tenant) and workers drain them under
// the configured Policy. Within one tenant, tasks dispatch in submission
// order; across tenants, FairShare interleaves queues by weighted stride
// round-robin. Fairness never changes results — draws are
// pure functions of (stream seed, draw index) — only who waits.
type Scheduler struct {
	workers int
	policy  Policy

	quit chan struct{}

	mu         sync.Mutex
	cond       *sync.Cond              // signaled when pending rises or the scheduler closes
	tenants    map[string]*tenantQueue // tenant name -> queue; accessed by key only
	all        []*tenantQueue          // creation order; deterministic iteration for Shares
	ready      []*tenantQueue          // non-empty queues, order-insensitive (dequeue scans for min)
	pending    int                     // queued tasks across all tenants
	closed     bool
	vtime      uint64 // pass of the most recent dispatch; floors re-activating tenants
	dispatched uint64 // lifetime tasks handed to workers

	startOnce sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a scheduler with the configured worker bound. Workers are
// started lazily on the first batch, so an unused scheduler costs nothing.
func New(cfg Config) *Scheduler {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers: w,
		policy:  cfg.Policy,
		quit:    make(chan struct{}),
		tenants: make(map[string]*tenantQueue),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

var (
	sharedOnce sync.Once
	shared     *Scheduler
)

// Shared returns the process-wide scheduler (GOMAXPROCS workers). Backends
// that are not given their own scheduler use it, so short-lived spaces do not
// each spin up a pool. The shared scheduler is never closed.
func Shared() *Scheduler {
	sharedOnce.Do(func() { shared = New(Config{}) })
	return shared
}

// Workers returns the scheduler's concurrency bound.
func (s *Scheduler) Workers() int { return s.workers }

// start launches the worker goroutines once.
func (s *Scheduler) start() {
	s.startOnce.Do(func() {
		for i := 0; i < s.workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	})
}

// worker pops tasks off the fair-share queues until the scheduler is closed
// and drained. Draining (rather than abandoning) queued tasks on close keeps
// every batch's WaitGroup accounting exact: a task that was accepted into a
// queue always runs its wrapper, which decides for itself whether to execute
// or withdraw.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.pending == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.pending == 0 {
			s.mu.Unlock()
			return
		}
		fn := s.dequeueLocked()
		s.mu.Unlock()
		fn()
	}
}

// Close stops the worker goroutines after draining already-queued tasks. It
// must not be called while a batch is in flight; it is idempotent. Closing a
// scheduler whose workers never started is a no-op.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.quit)
		s.cond.Broadcast()
	})
	s.wg.Wait()
}

// panicBox carries a task panic from a worker goroutine back to the batch's
// caller, preserving the synchronous-panic semantics of the serial code path
// (e.g. sampling a closed point must still crash the caller, not a worker).
type panicBox struct {
	mu  sync.Mutex
	val any  // guarded by mu
	set bool // guarded by mu
}

func (p *panicBox) capture(v any) {
	p.mu.Lock()
	if !p.set {
		p.val, p.set = v, true
	}
	p.mu.Unlock()
}

// nbatch is one DoN batch in flight: participants claim indices from a shared
// atomic cursor, so the per-task dispatch cost is one atomic add — the
// zero-allocation shape of the per-draw hot path.
type nbatch struct {
	fn   func(int)
	n    int64
	ctx  context.Context
	next atomic.Int64
	wg   sync.WaitGroup
	box  panicBox
}

// run claims and executes indices until the batch is exhausted or its context
// ends. It is the body every participant (pool worker) executes. A
// participant dequeued after the cursor is exhausted (or the context ended)
// returns immediately; enqueueing a few no-op participants is cheaper than
// withdrawing them from the middle of a ring.
func (b *nbatch) run() {
	defer b.wg.Done()
	mBusy.Inc()
	defer mBusy.Dec()
	for b.ctx.Err() == nil {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.runOne(int(i))
	}
}

// runOne executes one index, capturing a panic for re-raise on the caller.
func (b *nbatch) runOne(i int) {
	defer func() {
		if r := recover(); r != nil {
			b.box.capture(r)
		}
	}()
	b.fn(i)
}

// DoN fans fn out over indices 0..n-1 as one batch and returns when every
// claimed index has finished. It is the common shape of a sampling batch:
// index i samples point i. With Workers == 1 (or n == 1) the batch runs
// serially on the calling goroutine; otherwise up to Workers pool goroutines
// each pull indices off one shared cursor, so a batch costs a handful of
// allocations regardless of n. An already-canceled context dispatches
// nothing; if ctx is canceled mid-batch, participants stop claiming
// independently, already-running indices finish, and ctx.Err() is returned —
// the caller cannot assume which of the remaining indices ran. A panic inside
// fn is re-raised on the calling goroutine after the batch drains.
func (s *Scheduler) DoN(ctx context.Context, n int, fn func(i int)) error {
	return s.DoNAs(ctx, "", n, fn)
}

// DoNAs is DoN with the batch charged to the named tenant's fair-share
// queue. The empty tenant is a queue of its own, so untenanted work competes
// like any weight-1 tenant. The sampling backends thread the job's tenant
// through here so fleet capacity divides by Quota.Weight instead of
// submission order.
func (s *Scheduler) DoNAs(ctx context.Context, tenant string, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	serial := s.workers == 1 || n == 1
	if serial {
		mBusy.Inc()
	}
	mInflight.Inc()
	start := time.Now() //optlint:nondeterministic-ok batch-latency metric, never reaches a sample
	err := s.doN(ctx, tenant, n, fn)
	mBatchSeconds.Observe(time.Since(start).Seconds()) //optlint:nondeterministic-ok batch-latency metric, never reaches a sample
	mBatches.Inc()
	mTasks.Add(int64(n))
	mInflight.Dec()
	if serial {
		mBusy.Dec()
	}
	return err
}

// doNSerial runs an indexed batch in the caller's goroutine — the fast path
// taken when the pool is serial or the batch has one index. It is on the
// per-draw zero-allocation budget (see alloc_test.go), so it must stay free
// of closures, appends and boxing.
//
//optlint:noalloc
func (s *Scheduler) doNSerial(ctx context.Context, n int, fn func(i int)) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-s.quit:
			return ErrClosed
		default:
		}
		fn(i)
	}
	return nil
}

// doN is the batch body behind DoN/DoNAs. Up to Workers
// participant bodies are enqueued on the tenant's queue; each one claims
// indices off the shared cursor, so the queue cost is O(workers) per batch
// regardless of n.
func (s *Scheduler) doN(ctx context.Context, tenant string, n int, fn func(i int)) error {
	if s.workers == 1 || n == 1 {
		return s.doNSerial(ctx, n, fn)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	s.start()
	b := &nbatch{fn: fn, n: int64(n), ctx: ctx}
	participants := s.workers
	if n < participants {
		participants = n
	}
	run := b.run
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	q := s.queueForLocked(tenant)
	for i := 0; i < participants; i++ {
		b.wg.Add(1)
		s.enqueueLocked(q, run)
	}
	q.mDepth.Set(float64(q.n))
	s.mu.Unlock()
	s.cond.Broadcast()
	b.wg.Wait()
	b.box.mu.Lock()
	val, set := b.box.val, b.box.set
	b.box.mu.Unlock()
	if set {
		panic(val)
	}
	if b.next.Load() < b.n {
		// Participants bailed on a canceled context before claiming every
		// index.
		return ctx.Err()
	}
	return nil
}

// StreamSeed derives the RNG seed of stream number stream from a base seed
// using the SplitMix64 finalizer (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"). Distinct (base, stream) pairs map to
// well-separated seeds, so per-point noise streams are independent of each
// other and of the order in which points are sampled.
//
//optlint:noalloc
func StreamSeed(base, stream int64) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
