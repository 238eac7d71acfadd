package dist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrClosed is returned by SampleFleet after Close.
var ErrClosed = errors.New("dist: coordinator is closed")

// finite reports whether v can cross a frame (neither codec carries
// non-finite floats).
//
//optlint:floatboundary
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxWorkerCapacity clamps a worker's announced concurrency: capacity sizes
// the per-worker send queue, and an absurd hello must not allocate one.
const maxWorkerCapacity = 1024

// pipelineDepth is how many capacities of work a worker may hold: one
// executing, the rest queued on the worker's side of the wire. A worker that
// finishes a task starts the next one it already holds instead of idling for
// a result/dispatch round-trip, so the RTT is paid concurrently with
// execution rather than between tasks. Depth 2 hides one RTT, which is all
// there is to hide; deeper pipelines only inflate re-dispatch bills when a
// worker dies.
const pipelineDepth = 2

// Config configures a Coordinator.
type Config struct {
	// Heartbeat is the liveness interval announced to workers. Zero selects
	// one second.
	Heartbeat time.Duration
	// Timeout is how long a worker may stay silent (no heartbeat, no result)
	// before it is declared dead and its outstanding tasks are re-dispatched.
	// Zero selects 3 * Heartbeat.
	Timeout time.Duration
	// Events, when non-nil, receives structured fleet events: worker_join,
	// worker_rejected (a hello without the binary session codec),
	// worker_death and redispatch. A nil logger discards them.
	Events *obs.Logger
}

func (c *Config) normalize() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 3 * c.Heartbeat
	}
}

// Coordinator owns the fleet: it accepts worker registrations, dispatches
// sampling tasks over registered capacity in task-id order, collects results,
// monitors heartbeats, and deterministically re-dispatches the outstanding
// tasks of dead workers. It implements sim.FleetSampler, so it plugs into
// sim.LocalSpace (LocalConfig.Fleet / UseFleet) underneath every optimizer.
// Create with NewCoordinator, start with Listen, release with Close.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener             // guarded by mu
	workers  map[string]*remoteWorker // guarded by mu
	tasks    map[uint64]*task         // guarded by mu: live (queued or outstanding) tasks
	queue    []*task                  // guarded by mu: queued tasks, ascending id
	nextTask uint64                   // guarded by mu
	nextID   int                      // guarded by mu
	closed   bool                     // guarded by mu

	// Cumulative counters for Status.
	completed   uint64 // guarded by mu
	requeued    uint64 // guarded by mu
	deadWorkers uint64 // guarded by mu

	quit chan struct{}
	wg   sync.WaitGroup
}

// remoteWorker is the coordinator's record of one connected agent.
type remoteWorker struct {
	id       string
	name     string
	capacity int
	conn     net.Conn
	fw       *FrameWriter // owned by the sender goroutine after handshake

	// The coordinator's mu guards the mutable fields below; the fields above
	// are fixed at handshake.
	outstanding map[uint64]*task // guarded by mu
	lastSeen    time.Time        // guarded by mu
	dead        bool             // guarded by mu

	sendq chan Task
	quit  chan struct{}
}

// task is one queued or outstanding sampling increment.
type task struct {
	id   uint64
	wire Task
	b    *batch
	idx  int           // result slot in the owning batch
	w    *remoteWorker // nil while queued
	done bool          // completed or abandoned; skip if popped
	sent time.Time     // latest dispatch time, for the RTT histogram; zero until dispatched
}

// batch is one SampleFleet call in flight.
type batch struct {
	pending int
	res     []sim.FleetResult
	err     error
	ready   chan struct{}
}

// NewCoordinator builds a coordinator; call Listen to open the registration
// listener.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.normalize()
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*remoteWorker),
		tasks:   make(map[uint64]*task),
		quit:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.janitor()
	return c
}

// Listen opens the worker-registration listener on addr (e.g. ":9090", or
// "127.0.0.1:0" in tests) and starts accepting agents.
func (c *Coordinator) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	if c.ln != nil {
		c.mu.Unlock()
		ln.Close()
		return errors.New("dist: coordinator is already listening")
	}
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go c.accept(ln)
	return nil
}

// Addr returns the registration listener's address (nil before Listen).
func (c *Coordinator) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// Close shuts the fleet down: the listener stops, every worker connection is
// closed, and every in-flight SampleFleet fails with ErrClosed. Close is
// idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.quit)
	if c.ln != nil {
		c.ln.Close()
	}
	workers := make([]*remoteWorker, 0, len(c.workers))
	//optlint:nondeterministic-ok teardown: collection order does not affect results, every worker is closed
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	// Fail every live batch exactly once.
	failed := make(map[*batch]bool)
	//optlint:nondeterministic-ok teardown: each batch fails exactly once regardless of visit order
	for _, t := range c.tasks {
		if !failed[t.b] {
			failed[t.b] = true
			t.b.err = ErrClosed
			close(t.b.ready)
		}
		t.done = true
	}
	c.tasks = make(map[uint64]*task)
	c.queue = nil
	c.mu.Unlock()
	for _, w := range workers {
		c.killWorker(w, "coordinator closed")
	}
	c.wg.Wait()
}

// accept registers agents until the listener closes.
func (c *Coordinator) accept(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handshake(conn)
		}()
	}
}

// handshake performs the hello/welcome exchange and registers the worker. A
// hello that does not offer the binary session codec is refused before
// registration, so no task is ever dispatched to it.
func (c *Coordinator) handshake(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(c.cfg.Timeout)) //optlint:nondeterministic-ok I/O deadline, never reaches a sample
	var m Message
	if err := ReadFrame(conn, &m); err != nil || m.Type != TypeHello || m.Hello == nil {
		conn.Close()
		return
	}
	if !slices.Contains(m.Hello.Protos, ProtoBinary.String()) {
		c.cfg.Events.Event("worker_rejected",
			"name", m.Hello.Name, "protos", m.Hello.Protos, "remote", conn.RemoteAddr())
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	capacity := m.Hello.Capacity
	if capacity < 1 {
		capacity = 1
	}
	if capacity > maxWorkerCapacity {
		capacity = maxWorkerCapacity
	}
	name := m.Hello.Name
	if name == "" {
		name = "worker"
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.nextID++
	w := &remoteWorker{
		id:          fmt.Sprintf("%s#%d", name, c.nextID),
		name:        name,
		capacity:    capacity,
		conn:        conn,
		outstanding: make(map[uint64]*task),
		lastSeen:    time.Now(), //optlint:nondeterministic-ok liveness bookkeeping, never reaches a sample
		// sendq never holds more than the worker's outstanding tasks, which
		// dispatchLocked bounds by pipelineDepth * capacity.
		sendq: make(chan Task, pipelineDepth*capacity),
		quit:  make(chan struct{}),
	}
	c.workers[w.id] = w
	c.mu.Unlock()
	mWorkersGauge.Inc()
	c.cfg.Events.Event("worker_join",
		"worker", w.id, "name", name, "capacity", capacity,
		"remote", conn.RemoteAddr())

	// The welcome is the last JSON frame of the session: every later frame is
	// binary.
	if err := WriteFrame(conn, &Message{Type: TypeWelcome, Welcome: &Welcome{
		Worker:          w.id,
		HeartbeatMillis: int(c.cfg.Heartbeat / time.Millisecond),
		Proto:           ProtoBinary.String(),
	}}); err != nil {
		c.killWorker(w, "welcome failed")
		return
	}
	w.fw = NewFrameWriter(conn, ProtoBinary)

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.sender(w)
	}()

	// Hand the freshly registered capacity any queued work, then read until
	// the connection dies.
	c.mu.Lock()
	c.dispatchLocked()
	c.mu.Unlock()
	c.reader(w)
}

// sender drains the worker's send queue into dispatch frames, batching
// whatever is immediately available into one frame.
func (c *Coordinator) sender(w *remoteWorker) {
	for {
		var first Task
		select {
		case first = <-w.sendq:
		case <-w.quit:
			return
		}
		tasks := []Task{first}
	drain:
		for {
			select {
			case t := <-w.sendq:
				tasks = append(tasks, t)
			default:
				break drain
			}
		}
		if err := w.fw.Write(&Message{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: tasks}}); err != nil {
			c.killWorker(w, "send failed")
			return
		}
	}
}

// reader consumes the worker's frames until the connection ends, then
// declares it dead (re-dispatching whatever it still owed).
func (c *Coordinator) reader(w *remoteWorker) {
	fr := NewFrameReader(w.conn, ProtoBinary)
	for {
		var m Message
		if err := fr.Read(&m); err != nil {
			c.killWorker(w, "disconnected")
			return
		}
		c.mu.Lock()
		now := time.Now() //optlint:nondeterministic-ok liveness bookkeeping, never reaches a sample
		mHeartbeatGap.Observe(now.Sub(w.lastSeen).Seconds())
		w.lastSeen = now
		if m.Type == TypeResults && m.Results != nil {
			c.applyResultsLocked(m.Results.Results)
		}
		c.mu.Unlock()
	}
}

// applyResultsLocked folds completed task results into their batches.
// Results for unknown task IDs — duplicates after a re-dispatch race, or
// tasks of an abandoned batch — are dropped: re-dispatched tasks are pure
// functions, so whichever copy landed first carried the same bits.
func (c *Coordinator) applyResultsLocked(results []TaskResult) {
	for _, r := range results {
		t, ok := c.tasks[r.ID]
		if !ok || t.done {
			continue
		}
		if r.Err != "" {
			c.failBatchLocked(t.b, fmt.Errorf("dist: task %d (%s): %s", r.ID, t.wire.Objective, r.Err))
			continue
		}
		t.done = true
		delete(c.tasks, t.id)
		if t.w != nil {
			delete(t.w.outstanding, t.id)
			t.w = nil
		}
		t.b.res[t.idx] = sim.FleetResult{Z: r.Z, F: r.F}
		t.b.pending--
		c.completed++
		mTasksCompleted.Inc()
		if !t.sent.IsZero() {
			mRTT.Observe(time.Since(t.sent).Seconds()) //optlint:nondeterministic-ok RTT metric, never reaches a sample
		}
		if t.b.pending == 0 && t.b.err == nil {
			close(t.b.ready)
		}
	}
	c.dispatchLocked()
}

// failBatchLocked ends a batch with an error and abandons its remaining
// tasks.
func (c *Coordinator) failBatchLocked(b *batch, err error) {
	if b.err != nil {
		return
	}
	b.err = err
	c.abandonBatchLocked(b)
	close(b.ready)
}

// abandonBatchLocked withdraws every live task of a batch: outstanding
// entries are released from their workers (late results for them are
// dropped by ID lookup) and queued entries are compacted out of the heap —
// an agent-less coordinator must not accumulate the corpses of timed-out
// batches until a worker happens to connect.
func (c *Coordinator) abandonBatchLocked(b *batch) {
	//optlint:nondeterministic-ok set removal: withdrawing tasks is order-independent
	for id, t := range c.tasks {
		if t.b != b {
			continue
		}
		t.done = true
		delete(c.tasks, id)
		if t.w != nil {
			delete(t.w.outstanding, id)
			t.w = nil
		}
	}
	n := 0
	for _, t := range c.queue {
		if !t.done {
			c.queue[n] = t
			n++
		}
	}
	for i := n; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:n]
}

// dispatchLocked assigns queued tasks to workers with free pipeline slots,
// lowest task id first, to the freest worker. A worker's slot budget is
// pipelineDepth * capacity: capacity tasks executing plus a queued reserve
// that hides the dispatch round-trip. Which worker executes a task never
// affects its value — only when it lands.
func (c *Coordinator) dispatchLocked() {
	defer func() { mQueueDepth.Set(float64(len(c.queue))) }()
	for len(c.queue) > 0 {
		var best *remoteWorker
		free := 0
		//optlint:nondeterministic-ok max with a total-order tie-break on worker id, so map order cannot change the pick
		for _, w := range c.workers {
			if w.dead {
				continue
			}
			f := pipelineDepth*w.capacity - len(w.outstanding)
			if f > free || (f == free && f > 0 && w.id < best.id) {
				best, free = w, f
			}
		}
		if best == nil {
			return
		}
		t := c.queue[0]
		c.queue[0] = nil
		c.queue = c.queue[1:]
		if t.done {
			continue
		}
		t.w = best
		t.sent = time.Now() //optlint:nondeterministic-ok RTT metric timestamp, never reaches a sample
		best.outstanding[t.id] = t
		select {
		case best.sendq <- t.wire:
		default:
			// Cannot happen while outstanding <= pipelineDepth * capacity ==
			// cap(sendq); kept as a non-blocking guard so a bookkeeping bug
			// cannot deadlock the coordinator under its own lock.
			delete(best.outstanding, t.id)
			t.w = nil
			c.requeueLocked(t)
			go c.killWorker(best, "send queue overflow")
			return
		}
	}
}

// killWorker declares a worker dead: its connection closes, its goroutines
// stop, and its outstanding tasks merge back into the queue by id, so they
// re-dispatch in ascending task order ahead of any task submitted after them
// — the deterministic re-dispatch rule. Idempotent.
func (c *Coordinator) killWorker(w *remoteWorker, reason string) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	close(w.quit)
	w.conn.Close()
	delete(c.workers, w.id)
	c.deadWorkers++
	mWorkerDeaths.Inc()
	mWorkersGauge.Dec()
	orphans := make([]*task, 0, len(w.outstanding))
	//optlint:nondeterministic-ok requeueLocked sorts the orphans into the queue by task id
	for _, t := range w.outstanding {
		if !t.done {
			t.w = nil
			orphans = append(orphans, t)
		}
	}
	w.outstanding = nil
	c.requeueLocked(orphans...)
	requeued := len(orphans)
	c.requeued += uint64(requeued)
	mRedispatch.Add(int64(requeued))
	c.dispatchLocked()
	c.mu.Unlock()
	c.cfg.Events.Event("worker_death", "worker", w.id, "reason", reason, "requeued", requeued)
	if requeued > 0 {
		c.cfg.Events.Event("redispatch", "worker", w.id, "tasks", requeued)
	}
}

// requeueLocked merges previously dispatched tasks back into the queue in
// task-id order.
func (c *Coordinator) requeueLocked(ts ...*task) {
	c.queue = append(c.queue, ts...)
	slices.SortFunc(c.queue, func(x, y *task) int { return cmp.Compare(x.id, y.id) })
}

// janitor enforces the heartbeat timeout.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	interval := c.cfg.Timeout / 2
	if interval <= 0 {
		interval = c.cfg.Heartbeat
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.quit:
			return
		case now := <-ticker.C:
			var stale []*remoteWorker
			c.mu.Lock()
			//optlint:nondeterministic-ok re-queued tasks are sorted into the queue by task id, which absorbs collection order
			for _, w := range c.workers {
				if now.Sub(w.lastSeen) > c.cfg.Timeout {
					stale = append(stale, w)
				}
			}
			c.mu.Unlock()
			for _, w := range stale {
				c.killWorker(w, "heartbeat timeout")
			}
		}
	}
}

// SampleFleet implements sim.FleetSampler: it enqueues one task per request,
// waits for the fleet to execute them all, and returns the results in
// request order. With no workers connected the tasks wait in the queue (a
// fleet with zero agents is idle, not broken); cancel ctx to give up. On
// cancellation the batch's tasks are withdrawn and late results discarded.
func (c *Coordinator) SampleFleet(ctx context.Context, reqs []sim.FleetRequest) ([]sim.FleetResult, error) {
	if len(reqs) == 0 {
		return nil, ctx.Err()
	}
	// Non-finite coordinates or increments cannot cross the wire;
	// reject them here instead of letting an unencodable dispatch frame
	// kill every worker it is offered to.
	for i, r := range reqs {
		if !finite(r.Dt) {
			return nil, fmt.Errorf("dist: request %d has non-finite dt %v", i, r.Dt)
		}
		for _, v := range r.X {
			if !finite(v) {
				return nil, fmt.Errorf("dist: request %d has non-finite coordinate in %v", i, r.X)
			}
		}
	}
	b := &batch{
		pending: len(reqs),
		res:     make([]sim.FleetResult, len(reqs)),
		ready:   make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	// Task ids only grow, so appending keeps the queue sorted.
	for i, r := range reqs {
		c.nextTask++
		t := &task{
			id:  c.nextTask,
			b:   b,
			idx: i,
			wire: Task{
				ID:        c.nextTask,
				Objective: r.Objective,
				X:         r.X,
				Seed:      r.Seed,
				Skip:      r.Skip,
				Dt:        r.Dt,
			},
		}
		c.tasks[t.id] = t
		c.queue = append(c.queue, t)
	}
	c.dispatchLocked()
	c.mu.Unlock()

	select {
	case <-b.ready:
		if b.err != nil {
			return nil, b.err
		}
		return b.res, nil
	case <-ctx.Done():
		c.mu.Lock()
		// The batch may have completed (or failed) between the ctx firing
		// and the lock; honour that outcome, it is already final.
		select {
		case <-b.ready:
			c.mu.Unlock()
			if b.err != nil {
				return nil, b.err
			}
			return b.res, nil
		default:
		}
		c.abandonBatchLocked(b)
		c.dispatchLocked()
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// WorkerStatus describes one registered worker.
type WorkerStatus struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Capacity    int     `json:"capacity"`
	Outstanding int     `json:"outstanding"`
	IdleSeconds float64 `json:"idle_seconds"`
}

// Status is a point-in-time view of the fleet, served by optd's /healthz.
type Status struct {
	// Workers lists the registered agents, sorted by id.
	Workers []WorkerStatus `json:"workers"`
	// Capacity is the fleet's total concurrent-task capacity.
	Capacity int `json:"capacity"`
	// QueuedTasks counts tasks waiting for capacity.
	QueuedTasks int `json:"queued_tasks"`
	// OutstandingTasks counts tasks dispatched and not yet completed.
	OutstandingTasks int `json:"outstanding_tasks"`
	// CompletedTasks, RequeuedTasks and DeadWorkers are cumulative.
	CompletedTasks uint64 `json:"completed_tasks"`
	RequeuedTasks  uint64 `json:"requeued_tasks"`
	DeadWorkers    uint64 `json:"dead_workers"`
}

// Status returns the fleet's aggregate state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		CompletedTasks: c.completed,
		RequeuedTasks:  c.requeued,
		DeadWorkers:    c.deadWorkers,
	}
	now := time.Now() //optlint:nondeterministic-ok Status snapshot for operators; also covers the range below (workers are sorted by id after)
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID:          w.id,
			Name:        w.name,
			Capacity:    w.capacity,
			Outstanding: len(w.outstanding),
			IdleSeconds: now.Sub(w.lastSeen).Seconds(),
		})
		st.Capacity += w.capacity
		st.OutstandingTasks += len(w.outstanding)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for _, t := range c.queue {
		if !t.done {
			st.QueuedTasks++
		}
	}
	return st
}

// Workers returns the number of registered agents.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WaitWorkers blocks until at least n workers are registered (or ctx ends).
// Deployments use it to hold job submission until the fleet is up.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if c.Workers() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.quit:
			return ErrClosed
		case <-ticker.C:
		}
	}
}
