// Package jobs is the optimization job service: a manager that multiplexes
// many concurrent optimization runs — each one a first-class job with a
// lifecycle, live progress, cancellation, and durable checkpoints — over one
// shared sched worker fleet.
//
// The paper's deployment (§3.1) runs one master process per optimization and
// survives interruption with the §1.3.5.1 restart strategy. Production
// black-box services (SigOpt's parallel Bayesian optimization, parallel
// SPSA) are instead built as a job layer over a worker fleet; this package
// is that layer for the stochastic simplex:
//
//   - a bounded run pool (Config.MaxConcurrent) drains a FIFO queue of
//     submitted jobs, so a burst of submissions cannot oversubscribe the
//     machine;
//   - every job's sampling space dispatches batches on one shared
//     sched.Scheduler (Config.Workers), the in-process analogue of the
//     paper's fixed worker fleet;
//   - per-job context cancellation stops a run within one sampling round
//     (the sched dispatch guarantee);
//   - live progress fans out from core.Config.Trace to any number of
//     subscribers (Manager.Subscribe);
//   - checkpoints: the optimizer state is snapshotted every
//     Config.CheckpointEvery iterations and persisted with atomic
//     write-then-rename (internal/jobstore). A killed process recovers its
//     jobs with Manager.Recover and resumes them bitwise-deterministically
//     — the paper's restart strategy made durable.
//
// cmd/optd exposes the manager over HTTP/JSON; the repro facade re-exports
// it for in-process library use.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Job-lifecycle metrics (obs registry): state-transition counters, pool
// occupancy gauges and per-state duration histograms. All are updated at
// lifecycle transitions under the manager mutex, far off the sampling
// hot path.
var (
	mSubmitted = obs.Default().Counter("jobs_submitted_total",
		"jobs accepted by Submit")
	mRecovered = obs.Default().Counter("jobs_recovered_total",
		"jobs re-enqueued from durable checkpoints by Recover")
	mCompleted = obs.Default().Counter("jobs_completed_total",
		"jobs that terminated done")
	mFailed = obs.Default().Counter("jobs_failed_total",
		"jobs that terminated failed")
	mCanceled = obs.Default().Counter("jobs_canceled_total",
		"jobs that terminated canceled")
	mQueuedGauge = obs.Default().Gauge("jobs_queued",
		"jobs currently waiting for a run-pool slot")
	mRunningGauge = obs.Default().Gauge("jobs_running",
		"jobs currently executing (run-pool occupancy)")
	mQueueSeconds = obs.Default().Histogram("jobs_queue_seconds", nil,
		"time jobs spent queued before starting")
	mRunSeconds = obs.Default().Histogram("jobs_run_seconds", nil,
		"wall-clock run duration of terminal jobs")
	mCkptWrites = obs.Default().Counter("jobs_checkpoint_writes_total",
		"durable checkpoint snapshots persisted")
	mCkptErrors = obs.Default().Counter("jobs_checkpoint_errors_total",
		"checkpoint writes that failed (run continues without durability)")
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued means the job is waiting for a run-pool slot.
	StateQueued State = "queued"
	// StateRunning means the optimizer is executing.
	StateRunning State = "running"
	// StateDone means the run terminated normally (tolerance, walltime or
	// iteration budget).
	StateDone State = "done"
	// StateFailed means the run returned an error or panicked.
	StateFailed State = "failed"
	// StateCanceled means the job was canceled before or during the run.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one element of a job's progress stream.
type Event struct {
	// JobID identifies the job.
	JobID string `json:"job_id"`
	// Type is "state" for lifecycle transitions, "trace" for per-iteration
	// optimizer progress.
	Type string `json:"type"`
	// State is set on "state" events.
	State State `json:"state,omitempty"`
	// Trace is set on "trace" events.
	Trace *core.TraceEvent `json:"trace,omitempty"`
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID string `json:"id"`
	// Name is the spec's optional human label.
	Name string `json:"name,omitempty"`
	// Tenant is the namespace the job is accounted to ("default" when the
	// spec named none).
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	Spec   Spec   `json:"spec"`
	// Created/Started/Finished are wall-clock lifecycle timestamps; zero
	// until reached.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Iterations and BestG are live progress (updated per trace event).
	// Iterations accumulates across restart legs and BestG is the best
	// estimate seen over the whole job, so both are monotonic for polling
	// clients even when a fresh restart leg begins.
	Iterations int     `json:"iterations"`
	BestG      float64 `json:"best_g"`
	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// CheckpointError reports a durable-checkpoint write failure. The run
	// itself continues (and may finish done), but it cannot be recovered
	// from a snapshot newer than the last successful write.
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// Resumed reports whether the job was recovered from a checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// Config configures a Manager.
type Config struct {
	// MaxConcurrent bounds the number of jobs running simultaneously.
	// Zero selects 4.
	MaxConcurrent int
	// Workers sizes the shared sched fleet job spaces dispatch costed
	// increments on (see SampleCost; without one a job's noise draws run on
	// its own goroutine). Zero selects GOMAXPROCS.
	Workers int
	// SchedPolicy selects how the shared sched pool orders batch tasks
	// across tenants: "fair" (default) is weighted fair-share by
	// Quota.Weight, "fifo" is the single-global-queue baseline. Only costed
	// in-process sampling (SampleCost set) reaches that pool: a cost-free
	// job samples in its caller, a Spec.Workers job gets a private pool with
	// no tenant, and a Spec.Fleet job goes to the dist coordinator, which
	// ignores tenants. Moving fair share to the fleet is part of ROADMAP
	// item 4, "One dispatch engine".
	SchedPolicy string
	// Store, when non-nil, is the durable job store: every accepted job is
	// recorded in it at submission with a durable Put (so a
	// killed-while-queued job survives), updated lazily with each optimizer
	// snapshot, and lazily removed on completion. Only admission waits for
	// an fsync, and only Submit's caller waits for it: the job is queued
	// (invisible) before the Put and may run during it. A lost snapshot
	// resumes from an earlier one to the same bits, and a lost delete
	// re-runs the job to the same result. The manager takes ownership and
	// closes it on Close.
	Store jobstore.Store
	// CheckpointEvery is the snapshot period in simplex iterations.
	// Zero selects 20.
	CheckpointEvery int
	// TraceBuffer is the per-subscriber event buffer. A slow subscriber
	// drops events rather than stalling the optimizer. Zero selects 64.
	TraceBuffer int
	// RetainTerminal bounds how many terminal (done/failed/canceled) job
	// records the manager keeps; when exceeded, the oldest terminal jobs are
	// evicted so a long-lived server's memory stays bounded. Evicted jobs
	// return ErrNotFound from Get/Result/Wait — like any retention-bounded
	// service, results must be consumed before the record ages out, so size
	// the bound well above the submission fan-out between fetches. Zero
	// selects 4096; negative retains everything.
	RetainTerminal int
	// Objectives adds custom named objectives to the testfunc catalog.
	Objectives map[string]func(x []float64) float64
	// SampleCost, if non-nil, models the per-increment CPU cost of sampling
	// (sim.LocalConfig.SampleCost) in every job space this manager builds.
	// An objective's F runs once at point creation in the job's own
	// goroutine; SampleCost is what each sampling increment pays on the
	// shared fleet's workers — it is what makes fleet scheduling (and the
	// fairness benchmark) meaningful. Must be safe for concurrent calls.
	SampleCost func(x []float64, dt float64)
	// Fleet, when non-nil, lets jobs with Spec.Fleet run their sampling over
	// a remote worker fleet (a dist.Coordinator) instead of the in-process
	// pool. The manager does not own the fleet; the caller (cmd/optd)
	// creates and closes it.
	Fleet sim.FleetSampler
	// Events, when non-nil, receives structured lifecycle events
	// (job_state transitions, checkpoint writes and failures). A nil
	// logger discards them.
	Events *obs.Logger
	// DefaultQuota applies to every tenant without an explicit entry in
	// TenantQuotas. The zero Quota is unlimited.
	DefaultQuota Quota
	// TenantQuotas overrides DefaultQuota per tenant name.
	TenantQuotas map[string]Quota
}

func (c *Config) normalize() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 20
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 64
	}
	if c.RetainTerminal == 0 {
		c.RetainTerminal = 4096
	}
	if c.SchedPolicy == "" {
		c.SchedPolicy = "fair"
	}
}

// job is the manager's internal record of one run.
type job struct {
	id     string
	spec   Spec
	tenant string
	// store holds the job's durable record (nil when the manager has no
	// store). Adopted jobs keep the dead replica's store they came from,
	// so their snapshots and cleanup land where a later recovery looks.
	store jobstore.Store
	// recovered marks jobs re-enqueued from a durable record (with or
	// without a snapshot).
	recovered bool
	// admitting is set while Submit writes the job's admission record: the
	// job may already run, but every lookup treats its ID as unknown until
	// the record is durable. Guarded by mu.
	admitting bool

	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	result   *core.Result
	err      error
	ckptErr  error // latest checkpoint-write failure; the run itself continues
	iter     int
	bestG    float64

	ctx    context.Context
	cancel context.CancelFunc
	resume *core.Snapshot // non-nil when recovered with a snapshot
	// done is closed by settle, after the record drop finishLocked
	// decided on (dropRecord) has been issued. A job that finishes while
	// admitting leaves its drop to Submit instead (dropOnAdmit, guarded by
	// mu): the delete must land after the admission record.
	done        chan struct{}
	dropRecord  bool
	dropOnAdmit bool

	subs    map[int]chan Event
	nextSub int
}

// Manager runs many optimizations as jobs over one worker fleet. Create it
// with New, submit with Submit, and release it with Close.
type Manager struct {
	cfg  Config
	pool *sched.Scheduler

	// store is the manager's own durable store (nil when durability is
	// off); adopted collects stores taken over via RecoverFrom. Both are
	// set before the manager is shared (store) or append-only under mu
	// (adopted), and every store is internally synchronized.
	store   jobstore.Store
	adopted []jobstore.Store // guarded by mu

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job         // guarded by mu
	queue    []*job                  // guarded by mu
	terminal []string                // guarded by mu: terminal job IDs, oldest first, for retention eviction
	tenants  map[string]*tenantState // guarded by mu
	reserved map[string]struct{}     // guarded by mu: IDs of durable records not yet recovered
	nextID   int                     // guarded by mu
	closed   bool                    // guarded by mu

	// now is the manager's clock, set once in New and only overridden by
	// tests: the token-bucket refill math is a pure function of the times
	// it returns, so rate-limit boundaries are testable without sleeping.
	now func() time.Time

	// wg counts the runners, the admissions in flight and the record drops
	// settle has yet to issue, so Close closes the stores only after all
	// three.
	wg sync.WaitGroup
}

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager is closed")

// New builds a Manager and starts its run pool. When cfg.Store is set,
// previously checkpointed jobs are NOT resumed automatically; call Recover
// to pick them up.
func New(cfg Config) (*Manager, error) {
	cfg.normalize()
	var policy sched.Policy
	switch cfg.SchedPolicy {
	case "fair":
		policy = sched.FairShare
	case "fifo":
		policy = sched.FIFO
	default:
		return nil, fmt.Errorf("jobs: unknown SchedPolicy %q (want \"fair\" or \"fifo\")", cfg.SchedPolicy)
	}
	m := &Manager{
		cfg:      cfg,
		pool:     sched.New(sched.Config{Workers: cfg.Workers, Policy: policy}),
		jobs:     make(map[string]*job),
		tenants:  make(map[string]*tenantState),
		reserved: make(map[string]struct{}),
		now:      time.Now,
	}
	m.cond = sync.NewCond(&m.mu)
	m.initStore()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// Close cancels every live job, waits for the run pool to drain and for
// the admissions in flight to settle, releases the worker fleet and closes
// the durable store(s). Records of queued and running jobs stay durable,
// so a new manager — on this machine or any replica sharing the store —
// can Recover them; that includes a job whose admission completes during
// Close, which Submit acknowledges.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		j.cancel()
	}
	m.cond.Broadcast()
	stores := m.adopted
	m.mu.Unlock()
	m.wg.Wait()
	m.pool.Close()
	if m.store != nil {
		m.store.Close()
	}
	for _, st := range stores {
		st.Close()
	}
}

// Submit validates the spec, charges the tenant's quota and rate limit,
// assigns a job ID, enqueues the job and, when a store is configured,
// durably records it. The job starts as soon as a run-pool slot frees up —
// possibly while its record is still being written — but Submit returns
// the ID only once the record is durable, and until then every lookup
// treats the ID as unknown. A failed write withdraws the job: it is
// canceled and removed, its tenant slots are released, and Submit returns
// the error (wrapping ErrStore).
func (m *Manager) Submit(spec Spec) (string, error) {
	return m.submit("", spec)
}

// SubmitWithID is Submit with a caller-chosen job ID — the shard router
// uses it so the job's placement is a pure function of an ID the router
// generated, and any replica can locate the job without shared state. The
// ID must be storable (jobstore.ValidID) and not already in use; IDs of
// the auto-assigned j<number> form reserve that number, so later automatic
// IDs never collide with it.
func (m *Manager) SubmitWithID(id string, spec Spec) (string, error) {
	if err := jobstore.CheckID(id); err != nil {
		return "", err
	}
	return m.submit(id, spec)
}

// ErrStore is wrapped by the error of a submission whose admission record
// could not be made durable (HTTP 500 at the optd layer).
var ErrStore = errors.New("jobs: durable store failed")

// submit is the admission path shared by Submit and SubmitWithID. Under mu
// it validates, charges the tenant, assigns the ID and enqueues the job;
// with a store it then writes the admission record outside mu (an fsync
// must never serialize the manager, nor hold up the job) and acknowledges
// or withdraws the job by the outcome.
func (m *Manager) submit(explicit string, spec Spec) (string, error) {
	spec.normalize()
	if err := spec.validate(m); err != nil {
		return "", err
	}
	tenant := tenantOf(spec.Tenant)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	id := explicit
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("j%06d", m.nextID)
	} else {
		if _, taken := m.jobs[id]; taken {
			m.mu.Unlock()
			return "", fmt.Errorf("jobs: job ID %s already taken", id)
		}
		if _, taken := m.reserved[id]; taken {
			m.mu.Unlock()
			return "", fmt.Errorf("jobs: job ID %s already taken", id)
		}
		m.bumpIDLocked(id)
	}
	ts := m.tenantLocked(tenant)
	if err := m.admitLocked(ts, m.now()); err != nil {
		m.mu.Unlock()
		return "", err
	}
	j := m.enqueueLocked(id, spec, nil, false)
	j.store = m.store
	if j.store == nil {
		ts.acknowledgeLocked()
		m.mu.Unlock()
		return id, nil
	}
	j.admitting = true
	m.wg.Add(1) // Close waits for the admission
	m.mu.Unlock()
	defer m.wg.Done()

	payload, err := marshalRecord(id, spec, nil)
	if err == nil {
		err = j.store.Put(id, payload)
	}
	if err != nil {
		err = fmt.Errorf("%w: persisting job %s: %w", ErrStore, id, err)
	}
	m.mu.Lock()
	if err != nil {
		m.withdrawLocked(j, err)
		return "", err
	}
	if j.dropOnAdmit {
		// The job finished while its record was being written; drop the
		// record now that the admission is down.
		m.mu.Unlock()
		m.removeRecord(j)
		m.mu.Lock()
	}
	j.admitting = false
	ts.acknowledgeLocked()
	m.mu.Unlock()
	return id, nil
}

// withdrawLocked takes back a job whose admission record failed to write:
// it cancels the job, waits for it to reach a terminal state — releasing
// its tenant slots — and removes it and its record, so no trace of it
// survives. The rate-limit token is not refunded: the attempt consumed
// real work. Called with mu held; returns with mu released.
func (m *Manager) withdrawLocked(j *job, err error) {
	queued := m.cancelLocked(j)
	m.mu.Unlock()
	if queued {
		m.settle(j)
	}
	<-j.done // a running job stops within one sampling round
	m.mu.Lock()
	if m.jobs[j.id] == j {
		delete(m.jobs, j.id)
	}
	for i, id := range m.terminal {
		if id == j.id {
			m.terminal = append(m.terminal[:i], m.terminal[i+1:]...)
			break
		}
	}
	m.cfg.Events.Event("job_state", "job", j.id, "state", "withdrawn", "err", err)
	m.mu.Unlock()
	m.removeRecord(j)
}

// enqueueLocked registers a job (fresh or recovered) and wakes a runner.
// The caller has already charged the job's tenant with one queued slot.
func (m *Manager) enqueueLocked(id string, spec Spec, resume *core.Snapshot, recovered bool) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        id,
		spec:      spec,
		tenant:    tenantOf(spec.Tenant),
		recovered: recovered,
		state:     StateQueued,
		created:   time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		resume:    resume,
		done:      make(chan struct{}),
		subs:      make(map[int]chan Event),
	}
	if resume != nil {
		// Seed live progress from the snapshot immediately, so a client
		// polling across the kill/recover never sees the counters regress.
		j.iter = resume.Iterations
		if resume.Restart != nil && resume.Restart.Total != nil {
			j.iter += resume.Restart.Total.Iterations
		}
		if resume.Restart != nil && resume.Restart.Best != nil {
			j.bestG = resume.Restart.Best.BestG
		}
	}
	m.jobs[id] = j
	m.queue = append(m.queue, j)
	if recovered {
		mRecovered.Inc()
	}
	mQueuedGauge.Inc()
	m.cfg.Events.Event("job_state", "job", id, "state", StateQueued, "tenant", j.tenant, "resumed", recovered)
	m.cond.Signal()
	return j
}

// dequeueLocked pops the first runnable job in FIFO order, skipping jobs
// whose tenant is at its running cap (they keep their queue position, but
// other tenants' jobs pass them — one capped tenant must not block the
// pool). Queued jobs already canceled are finalized in place and appended
// to finished, which the caller settles after unlocking. Returns nil when
// nothing is runnable right now.
func (m *Manager) dequeueLocked(finished []*job) (*job, []*job) {
	for i := 0; i < len(m.queue); i++ {
		j := m.queue[i]
		if j.ctx.Err() != nil {
			// Canceled (or manager-closed) while still queued.
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.finishLocked(j, nil, nil, StateCanceled)
			finished = append(finished, j)
			i--
			continue
		}
		if ts, ok := m.tenants[j.tenant]; ok && ts.atRunCapLocked() {
			continue
		}
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
		return j, finished
	}
	return nil, finished
}

// runner is one run-pool slot: it drains the FIFO queue until Close.
func (m *Manager) runner() {
	defer m.wg.Done()
	var canceled []*job // queued jobs dequeueLocked finalized, to settle unlocked
	for {
		m.mu.Lock()
		var j *job
		for {
			j, canceled = m.dequeueLocked(canceled[:0])
			if j != nil || len(canceled) > 0 || m.closed {
				break
			}
			m.cond.Wait()
		}
		if j == nil {
			m.mu.Unlock()
			if len(canceled) == 0 {
				return // closed and drained
			}
			m.settle(canceled...)
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		m.tenantLocked(j.tenant).startLocked()
		mQueuedGauge.Dec()
		mRunningGauge.Inc()
		mQueueSeconds.Observe(j.started.Sub(j.created).Seconds())
		m.cfg.Events.Event("job_state", "job", j.id, "state", StateRunning)
		m.publishLocked(j, Event{JobID: j.id, Type: "state", State: StateRunning})
		m.mu.Unlock()
		m.settle(canceled...)

		res, err := m.execute(j)

		m.mu.Lock()
		switch {
		case err != nil:
			m.finishLocked(j, nil, err, StateFailed)
		case res.Termination == "canceled":
			m.finishLocked(j, res, nil, StateCanceled)
		default:
			m.finishLocked(j, res, nil, StateDone)
		}
		m.mu.Unlock()
		m.settle(j)
	}
}

// execute runs one job to completion (or cancellation). A panic in the
// objective is converted to a job failure instead of crashing the service.
func (m *Manager) execute(j *job) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("jobs: run panicked: %v", r)
		}
	}()
	space, err := m.space(j.spec)
	if err != nil {
		return nil, err
	}
	defer space.Close()

	// Status progress stays monotonic across restart legs: core trace
	// events restart Iter at 1 per leg, so accumulate a base, and report
	// the best estimate seen over all legs. Subscribers still receive the
	// raw per-leg optimizer events. A job recovered from a checkpoint seeds
	// the counters from the snapshot, so post-recovery polls never show
	// values below what clients saw before the kill.
	var legBase, prevIter int
	var haveBest bool
	if r := j.resume; r != nil {
		// Continue the monotonic accounting enqueueLocked seeded.
		prevIter = r.Iterations // leg-local position at the snapshot
		if r.Restart != nil && r.Restart.Total != nil {
			legBase = r.Restart.Total.Iterations // completed earlier legs
		}
		haveBest = r.Restart != nil && r.Restart.Best != nil
	}
	trace := func(e core.TraceEvent) {
		m.mu.Lock()
		if e.Iter <= prevIter {
			legBase += prevIter // a fresh restart leg began
		}
		prevIter = e.Iter
		j.iter = legBase + e.Iter
		if !haveBest || e.Best < j.bestG {
			j.bestG = e.Best
			haveBest = true
		}
		m.publishLocked(j, Event{JobID: j.id, Type: "trace", Trace: &e})
		m.mu.Unlock()
	}
	checkpoint := func(s *core.Snapshot) {
		if cerr := m.saveCheckpoint(j, s); cerr != nil {
			// A checkpoint that cannot be written must not kill the run; the
			// job just loses durability from this point on. Surfaced as
			// Status.CheckpointError, distinct from a run failure.
			mCkptErrors.Inc()
			m.cfg.Events.Event("checkpoint_error", "job", j.id, "err", cerr)
			m.mu.Lock()
			j.ckptErr = cerr
			m.mu.Unlock()
			return
		}
		mCkptWrites.Inc()
		m.cfg.Events.Event("checkpoint_write", "job", j.id, "iterations", s.Iterations)
	}

	// Every strategy — the NM family, pso, the hybrid, and anything a
	// third party registers — runs through the one core driver, so the job
	// layer adds no per-strategy code paths.
	rs, err := j.spec.runSpec()
	if err != nil {
		return nil, err
	}
	rs.Config.Trace = trace
	if j.store != nil && j.spec.resumable() {
		rs.Config.Checkpoint = checkpoint
		rs.Config.CheckpointEvery = m.cfg.CheckpointEvery
	}
	rs.Resume = j.resume
	return core.Run(j.ctx, space, rs)
}

// finishLocked moves a job to a terminal state, publishes the transition,
// closes subscriber channels and decides whether the durable record goes.
// It does no store I/O: the caller must call settle after releasing mu.
func (m *Manager) finishLocked(j *job, res *core.Result, err error, state State) {
	prev := j.state
	j.state = state
	j.result = res
	if err != nil {
		j.err = err
	}
	j.finished = time.Now()
	if res != nil {
		j.iter = res.Iterations
		j.bestG = res.BestG
	}
	switch prev {
	case StateQueued:
		mQueuedGauge.Dec()
	case StateRunning:
		mRunningGauge.Dec()
		mRunSeconds.Observe(j.finished.Sub(j.started).Seconds())
	}
	m.tenantLocked(j.tenant).finishLocked(prev)
	if prev == StateRunning {
		// A tenant that was at its running cap may have queued jobs a
		// runner skipped; wake the pool to re-scan the queue.
		m.cond.Broadcast()
	}
	switch state {
	case StateDone:
		mCompleted.Inc()
	case StateFailed:
		mFailed.Inc()
	case StateCanceled:
		mCanceled.Inc()
	}
	if err != nil {
		m.cfg.Events.Event("job_state", "job", j.id, "state", state, "err", err)
	} else {
		m.cfg.Events.Event("job_state", "job", j.id, "state", state)
	}
	m.publishLocked(j, Event{JobID: j.id, Type: "state", State: state})
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	if j.store != nil && (state == StateDone || (state == StateCanceled && !m.closed)) {
		// A completed or user-canceled job no longer needs its record.
		// Failed jobs keep theirs (re-recoverable once the bug is fixed),
		// and jobs canceled by Close keep theirs too — shutdown is the
		// "kill" the durable-record design exists for, and a fresh manager
		// (or an adopting replica) picks them up with Recover/RecoverFrom.
		// Close waits for the drop: the store must still be open for it.
		if j.admitting {
			j.dropOnAdmit = true // submit drops it after the admission record
		} else {
			j.dropRecord = true
			m.wg.Add(1)
		}
	}
	// Retention: evict the oldest terminal records beyond the bound so a
	// long-lived server's job table stays finite.
	m.terminal = append(m.terminal, j.id)
	if r := m.cfg.RetainTerminal; r > 0 {
		for len(m.terminal) > r {
			delete(m.jobs, m.terminal[0])
			m.terminal = m.terminal[1:]
		}
	}
}

// settle completes the terminal transition of jobs finishLocked finalized:
// it drops each record finishLocked marked, then releases the job's
// waiters. Call it without mu held, so the store never stalls the manager.
func (m *Manager) settle(js ...*job) {
	for _, j := range js {
		if j.dropRecord {
			m.removeRecord(j)
			m.wg.Done()
		}
		close(j.done)
	}
}

// publishLocked fans an event out to the job's subscribers, dropping it for
// any subscriber whose buffer is full (slow consumers must not stall the
// optimizer loop).
func (m *Manager) publishLocked(j *job, e Event) {
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// Cancel requests cancellation of a job. Queued jobs are removed from the
// queue and finalized immediately (a Wait on them returns right away, not
// after the current job frees a slot); running jobs stop within one sampling
// round and finish with state "canceled". Canceling a terminal job is a
// no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.lookupLocked(id)
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	queued := m.cancelLocked(j)
	m.mu.Unlock()
	if queued {
		m.settle(j)
	}
	return nil
}

// cancelLocked cancels j and finalizes it at once if it is still queued,
// reporting whether it did; the caller must then settle j after releasing
// mu.
func (m *Manager) cancelLocked(j *job) bool {
	j.cancel()
	if j.state != StateQueued {
		return false
	}
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	m.finishLocked(j, nil, nil, StateCanceled)
	return true
}

// lookupLocked finds a job by ID. A job whose admission is still in flight
// is not found: the caller has not been given its ID yet.
func (m *Manager) lookupLocked(id string) (*job, bool) {
	j, ok := m.jobs[id]
	if !ok || j.admitting {
		return nil, false
	}
	return j, true
}

// Get returns the job's current status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.lookupLocked(id)
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// Stats is a point-in-time aggregate view of the manager, the payload
// behind the optd server's /healthz readiness probe.
type Stats struct {
	// Workers is the size of the shared sampling fleet.
	Workers int `json:"workers"`
	// MaxConcurrent is the run-pool width.
	MaxConcurrent int `json:"max_concurrent"`
	// Store names the durable store kind ("file", "wal"; empty when
	// durability is off).
	Store string `json:"store,omitempty"`
	// Tenants counts namespaces that have submitted or recovered jobs.
	Tenants int `json:"tenants,omitempty"`
	// Queued..Canceled count jobs by lifecycle state (terminal counts are
	// bounded by Config.RetainTerminal).
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// Stats returns the manager's aggregate state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Workers: m.pool.Workers(), MaxConcurrent: m.cfg.MaxConcurrent, Tenants: len(m.tenants)}
	if m.store != nil {
		st.Store = m.store.Kind()
	}
	for _, j := range m.jobs {
		if j.admitting {
			continue
		}
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	return st
}

// List returns the status of every job, oldest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		if !j.admitting {
			out = append(out, m.statusLocked(j))
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (m *Manager) statusLocked(j *job) Status {
	st := Status{
		ID:         j.id,
		Name:       j.spec.Name,
		Tenant:     j.tenant,
		State:      j.state,
		Spec:       j.spec,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
		Iterations: j.iter,
		BestG:      j.bestG,
		Resumed:    j.recovered,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.ckptErr != nil {
		st.CheckpointError = j.ckptErr.Error()
	}
	return st
}

// Result returns the completed job's Result. It errors while the job is
// still queued or running, for failed jobs (the run error), and for jobs
// canceled before they ever started (no result exists). A job canceled
// mid-run does have a Result: the best vertex found up to the cancellation.
func (m *Manager) Result(id string) (*core.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.lookupLocked(id)
	if !ok {
		return nil, ErrNotFound
	}
	return m.resultLocked(j)
}

func (m *Manager) resultLocked(j *job) (*core.Result, error) {
	if !j.state.Terminal() {
		return nil, fmt.Errorf("jobs: job %s is %s", j.id, j.state)
	}
	if j.state == StateFailed {
		return nil, j.err
	}
	if j.result == nil {
		return nil, fmt.Errorf("jobs: job %s was canceled before it started", j.id)
	}
	return j.result, nil
}

// Wait blocks until the job reaches a terminal state and returns its Result
// under the same contract as Result (an error for failed jobs and for jobs
// canceled before they started).
func (m *Manager) Wait(id string) (*core.Result, error) {
	m.mu.Lock()
	j, ok := m.lookupLocked(id)
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	<-j.done
	// Read the record directly: the job may already have been evicted from
	// the table by terminal-retention churn.
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resultLocked(j)
}

// Subscribe registers a progress listener for a job: the returned channel
// receives "state" and per-iteration "trace" events and is closed when the
// job reaches a terminal state (or when the returned cancel function is
// called). Events are dropped, not queued unboundedly, when the subscriber
// falls more than TraceBuffer events behind.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.lookupLocked(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, m.cfg.TraceBuffer)
	if j.state.Terminal() {
		// Deliver the terminal state and close immediately: late subscribers
		// see a consistent (if short) stream.
		ch <- Event{JobID: j.id, Type: "state", State: j.state}
		close(ch)
		return ch, func() {}, nil
	}
	sub := j.nextSub
	j.nextSub++
	j.subs[sub] = ch
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if c, ok := j.subs[sub]; ok {
			delete(j.subs, sub)
			close(c)
		}
	}
	return ch, cancel, nil
}
