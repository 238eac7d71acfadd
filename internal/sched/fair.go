package sched

import (
	"fmt"

	"repro/internal/obs"
)

// Policy selects how the scheduler orders queued batch tasks across tenants.
type Policy int

const (
	// FairShare drains per-tenant queues by weighted stride round-robin:
	// each tenant owns a virtual-time pass that advances by stride =
	// strideUnit/weight per dispatched task, and the scheduler always pops
	// from the non-empty queue with the smallest (pass, name). A weight-w
	// tenant therefore receives w times the dispatch slots of a weight-1
	// tenant whenever both are backlogged, and the dispatch order is a pure
	// function of queue state — no clocks, no randomness, no map iteration.
	FairShare Policy = iota

	// FIFO collapses every submission into one global queue drained in
	// arrival order, ignoring tenants and weights. It is the pre-fair-share
	// behavior, kept as the baseline (bench/ prices both as
	// sched.fair_ns_per_task and sched.fifo_ns_per_task; the jobs package's
	// TestFairShareShieldsLightTenant contrasts the two under a saturating
	// tenant).
	FIFO
)

// strideUnit is the stride numerator: pass advances by strideUnit/weight per
// dispatch, so relative throughput tracks weight to within 1/strideUnit.
const strideUnit = 1 << 20

// maxWeight caps tenant weights so stride never truncates to zero.
const maxWeight = strideUnit

// tenantQueue is one tenant's FIFO of runnable batch tasks plus its stride
// accounting. All fields are guarded by Scheduler.mu. The ring buffer is
// reused across batches, so the steady-state enqueue/dequeue path allocates
// nothing.
type tenantQueue struct {
	name   string
	weight uint64
	stride uint64
	pass   uint64 // virtual time; next dispatch "costs" stride

	ring []func()
	head int
	n    int

	dispatched uint64 // tasks handed to workers, lifetime

	mDispatched *obs.Counter
	mShare      *obs.Gauge
	mDepth      *obs.Gauge
}

// push appends fn to the tail of the ring, growing it (power of two) when
// full. Caller holds Scheduler.mu.
func (q *tenantQueue) push(fn func()) {
	if q.n == len(q.ring) {
		size := len(q.ring) * 2
		if size == 0 {
			size = 8
		}
		next := make([]func(), size)
		for i := 0; i < q.n; i++ {
			next[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring = next
		q.head = 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = fn
	q.n++
}

// queueForLocked returns (creating on first use) the tenant's queue. Under
// the FIFO policy every tenant maps to the single "" queue. Caller holds
// Scheduler.mu. Metric handles are resolved here, off the dispatch hot path.
func (s *Scheduler) queueForLocked(tenant string) *tenantQueue {
	if s.policy == FIFO {
		tenant = ""
	}
	if q, ok := s.tenants[tenant]; ok {
		return q
	}
	q := &tenantQueue{
		name:   tenant,
		weight: 1,
		stride: strideUnit,
		pass:   s.vtime,
	}
	reg := obs.Default()
	q.mDispatched = reg.Counter(
		fmt.Sprintf("sched_tenant_dispatched_total{tenant=%q}", tenant),
		"batch tasks dispatched to fleet workers for this tenant")
	q.mShare = reg.Gauge(
		fmt.Sprintf("sched_tenant_fleet_share{tenant=%q}", tenant),
		"tenant's cumulative share of fleet task dispatches, 0..1")
	q.mDepth = reg.Gauge(
		fmt.Sprintf("sched_tenant_queue_depth{tenant=%q}", tenant),
		"batch tasks currently queued for this tenant")
	s.tenants[tenant] = q
	s.all = append(s.all, q)
	return q
}

// enqueueLocked appends one runnable task to the tenant's queue, activating
// the queue (with a virtual-time catch-up, so a tenant returning from idle
// cannot replay its unused past share) if it was empty. Caller holds
// Scheduler.mu and is responsible for waking workers.
func (s *Scheduler) enqueueLocked(q *tenantQueue, fn func()) {
	if q.n == 0 {
		if q.pass < s.vtime {
			q.pass = s.vtime
		}
		s.ready = append(s.ready, q)
	}
	q.push(fn)
	s.pending++
}

// dequeueLocked pops the next task under the scheduler's policy: the
// non-empty queue with the smallest (pass, name) wins, its pass advances by
// its stride, and the global virtual time follows the winner. The selection
// reads only queue state, so two schedulers holding identical queues always
// dispatch identically. Caller holds Scheduler.mu and guarantees pending > 0.
// This is the per-task dispatch hot path and must stay allocation-free.
//
//optlint:noalloc
func (s *Scheduler) dequeueLocked() func() {
	best := 0
	for i := 1; i < len(s.ready); i++ {
		q, b := s.ready[i], s.ready[best]
		if q.pass < b.pass || (q.pass == b.pass && q.name < b.name) {
			best = i
		}
	}
	q := s.ready[best]
	fn := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	s.pending--
	s.vtime = q.pass
	q.pass += q.stride
	if q.n == 0 {
		last := len(s.ready) - 1
		s.ready[best] = s.ready[last]
		s.ready[last] = nil
		s.ready = s.ready[:last]
	}
	q.dispatched++
	s.dispatched++
	q.mDispatched.Inc()
	q.mDepth.Set(float64(q.n))
	q.mShare.Set(float64(q.dispatched) / float64(s.dispatched))
	return fn
}

// SetWeight sets the tenant's fair-share weight (clamped to [1, 1<<20]).
// Weight w grants w dispatch slots per weight-1 slot while both tenants are
// backlogged. It only affects dispatches after the call; under the FIFO
// policy it is a no-op. Safe for concurrent use.
func (s *Scheduler) SetWeight(tenant string, weight int) {
	if weight < 1 {
		weight = 1
	}
	if weight > maxWeight {
		weight = maxWeight
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queueForLocked(tenant)
	q.weight = uint64(weight)
	q.stride = strideUnit / q.weight
}

// TenantShare is one tenant's fair-share accounting snapshot.
type TenantShare struct {
	Tenant     string `json:"tenant"`
	Weight     int    `json:"weight"`
	Dispatched uint64 `json:"dispatched"` // tasks handed to workers, lifetime
	Queued     int    `json:"queued"`     // tasks waiting right now
}

// Shares returns per-tenant dispatch accounting in tenant-name order. The
// sum of Dispatched across tenants equals Dispatched()'s total: every task
// handed to a worker is charged to exactly one tenant.
func (s *Scheduler) Shares() []TenantShare {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantShare, 0, len(s.all))
	for _, q := range s.all {
		out = append(out, TenantShare{
			Tenant:     q.name,
			Weight:     int(q.weight),
			Dispatched: q.dispatched,
			Queued:     q.n,
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Tenant < out[j-1].Tenant; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Dispatched returns the lifetime count of tasks handed to pool workers
// across all tenants. Serial in-caller batches never enter the queues and
// are not counted.
func (s *Scheduler) Dispatched() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dispatched
}
