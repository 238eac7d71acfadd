package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/testfunc"
)

// WorkerConfig configures a worker agent.
type WorkerConfig struct {
	// Addr is the coordinator's registration address ("host:9090").
	Addr string
	// Addrs, when non-empty, lists fallback coordinator addresses (Addr
	// included or not — it is prepended if set). Each dial attempt tries
	// the next address in rotation, so a worker pointed at a sharded optd
	// deployment re-homes to a surviving shard's fleet when its own
	// coordinator dies. Safe because workers are stateless: a task result
	// is a pure function of the task, whichever coordinator sent it.
	Addrs []string
	// Name labels the worker in fleet status (default "worker").
	Name string
	// Capacity is how many tasks the agent executes concurrently. Zero
	// selects 1.
	Capacity int
	// Objectives is the agent's objective catalog; nil selects the testfunc
	// catalog. Deployments with custom objectives register the same named
	// functions here that the job manager registers in jobs.Config.Objectives
	// — the coordinator cross-checks every returned value against its own,
	// so a divergent implementation fails the run instead of corrupting it.
	Objectives map[string]func(x []float64) float64
	// SampleCost, if non-nil, is invoked once per task with the coordinates
	// and increment, modelling the CPU cost of the underlying simulation —
	// the work the fleet exists to farm out. It must be safe for concurrent
	// calls.
	SampleCost func(x []float64, dt float64)
	// Events, when non-nil, receives structured agent events
	// (session_start after each handshake, session_end with the error and
	// reconnect delay). nil is silent.
	Events *obs.Logger
}

// handshakeTimeout bounds the hello/welcome exchange. A coordinator that
// accepts the connection and never answers (a stopped process still completes
// the kernel's TCP handshake) costs the agent this long, then the next
// address in rotation. A variable only so tests can shorten it.
var handshakeTimeout = 5 * time.Second

// Worker is one remote sampling agent: it dials the coordinator, registers
// its capacity, heartbeats, and executes dispatched tasks. A task's result is
// a pure function of the task, so an agent holds no run state — it can join,
// die, or rejoin at any point of any run without affecting results.
type Worker struct {
	cfg        WorkerConfig
	addrs      []string    // coordinator addresses, dialed in rotation
	dialIdx    int         // next addrs entry to dial; only touched from Run's goroutine
	events     *obs.Logger // cfg.Events; nil-safe
	objectives map[string]func([]float64) float64

	// streams caches RNG positions per stream seed, so consecutive draws of
	// one point cost one variate instead of a replay from zero. The cache is
	// pure optimization: a miss replays Skip draws from the seed, which is
	// the same sequence bit for bit. Seeding itself is O(1) (noise.Source),
	// so a miss costs the discarded variates and nothing else.
	mu      sync.Mutex
	streams map[int64]*streamPos
}

// streamPos is a cached generator with the number of variates it has
// produced. It draws through Source.NormFloat64, the method a local
// noise.Stream draws through, so a fleet draw is a local draw by
// construction. Each entry carries its own lock so a cache-miss replay —
// thousands of discarded variates for a far-ahead skip — serializes only
// tasks of the same stream, not the whole agent.
type streamPos struct {
	mu  sync.Mutex
	src noise.Source
	pos int
}

// maxCachedStreams bounds the draw cache; past it the cache resets (a safe,
// purely performance-affecting event).
const maxCachedStreams = 4096

// NewWorker builds a worker agent.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	w := &Worker{cfg: cfg, streams: make(map[int64]*streamPos)}
	if cfg.Addr != "" {
		w.addrs = append(w.addrs, cfg.Addr)
	}
	for _, a := range cfg.Addrs {
		if a != "" && a != cfg.Addr {
			w.addrs = append(w.addrs, a)
		}
	}
	w.events = cfg.Events
	w.objectives = cfg.Objectives
	if w.objectives == nil {
		w.objectives = make(map[string]func([]float64) float64, len(testfunc.Catalog))
		for _, f := range testfunc.Catalog {
			w.objectives[f.Name] = f.F
		}
	}
	return w
}

// Run serves one connection to the coordinator: dial, register, execute
// dispatches until ctx ends or the connection fails. It returns nil on a
// ctx-initiated shutdown and the transport error otherwise.
func (w *Worker) Run(ctx context.Context) error {
	conn, err := w.dial(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()

	welcome, err := w.handshake(conn)
	if err != nil {
		w.dialIdx++ // move on from a coordinator that cannot finish a handshake, as from one that refuses the dial
		return err
	}
	heartbeat := time.Duration(welcome.HeartbeatMillis) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	mWorkerSessions.Inc()
	w.events.Event("session_start", "worker", welcome.Worker, "heartbeat", heartbeat)

	fw := NewFrameWriter(conn, ProtoBinary)
	var sendMu sync.Mutex
	send := func(m *Message) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return fw.Write(m)
	}

	// Heartbeats and a ctx watchdog: closing the connection is what unblocks
	// the read loop on shutdown.
	done := make(chan struct{})
	defer close(done)
	go func() {
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				conn.Close()
				return
			case <-ticker.C:
				if err := send(&Message{Type: TypeHeartbeat}); err != nil {
					return
				}
			}
		}
	}()

	// Execution pool: Capacity executor goroutines drain one FIFO queue of
	// the tasks of every dispatch frame the agent holds, sized for the
	// coordinator's pipeline, so the agent always holds queued work while
	// executing — finishing a task starts the next one immediately instead
	// of idling for a dispatch round-trip. The executors share each frame's
	// tasks, and the one that lands a frame's last task sends the frame's
	// results as one frame, in the frame's task order. FIFO handoff keeps
	// execution in dispatch order (a capacity-1 agent runs tasks exactly in
	// the coordinator's task-id order, pipeline or not), and the read loop
	// never blocks on execution capacity.
	taskq := make(chan frameTask, pipelineDepth*frameTasks(w.cfg.Capacity))
	var tasks sync.WaitGroup
	for i := 0; i < w.cfg.Capacity; i++ {
		go func() {
			for ft := range taskq {
				// During a ctx-initiated shutdown leftover tasks are skipped,
				// not executed: the coordinator will obtain their results
				// elsewhere.
				if ctx.Err() == nil {
					ft.f.res.Results[ft.i] = w.execute(ft.t)
					if ft.f.left.Add(-1) == 0 {
						if err := send(&Message{Type: TypeResults, Results: &ft.f.res}); err != nil {
							// Results that cannot be delivered (encode or
							// transport failure) must not strand their
							// tasks: tear the session down so the
							// coordinator re-dispatches them.
							conn.Close()
						}
					}
				}
				tasks.Done()
			}
		}()
	}
	defer func() {
		// Stop the executors (the read loop is the only sender). A
		// ctx-initiated shutdown is abrupt by design; transport-initiated
		// exits wait for in-flight tasks, keeping RunLoop's reconnect from
		// racing its own executors.
		close(taskq)
		if ctx.Err() == nil {
			tasks.Wait()
		}
	}()
	fr := NewFrameReader(conn, ProtoBinary)
	for {
		var m Message
		if err := fr.Read(&m); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("dist: read: %w", err)
		}
		if m.Type != TypeDispatch || m.Dispatch == nil || len(m.Dispatch.Tasks) == 0 {
			continue
		}
		f := &frameResults{res: Results{Results: make([]TaskResult, len(m.Dispatch.Tasks))}}
		f.left.Store(int32(len(m.Dispatch.Tasks)))
		tasks.Add(len(m.Dispatch.Tasks))
		for i, t := range m.Dispatch.Tasks {
			taskq <- frameTask{f: f, i: i, t: t}
		}
	}
}

// frameResults collects the results of one dispatch frame as its tasks land.
type frameResults struct {
	res  Results
	left atomic.Int32 // tasks not yet landed; the executor taking it to zero sends res
}

// frameTask is one task of a dispatch frame, with its result slot.
type frameTask struct {
	f *frameResults
	i int
	t Task
}

// handshake sends hello and reads welcome, both JSON, within
// handshakeTimeout. Every later frame is binary, so a welcome that announces
// any other session codec ends the session here.
func (w *Worker) handshake(conn net.Conn) (*Welcome, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout)) //optlint:nondeterministic-ok I/O deadline, never reaches a sample
	if err := WriteFrame(conn, &Message{Type: TypeHello, Hello: &Hello{
		Name:     w.cfg.Name,
		Capacity: w.cfg.Capacity,
		Protos:   []string{ProtoBinary.String()},
	}}); err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	var m Message
	if err := ReadFrame(conn, &m); err != nil {
		return nil, fmt.Errorf("dist: welcome: %w", err)
	}
	if m.Type != TypeWelcome || m.Welcome == nil {
		return nil, fmt.Errorf("dist: expected welcome, got %q", m.Type)
	}
	if m.Welcome.Proto != ProtoBinary.String() {
		return nil, fmt.Errorf("dist: coordinator announced session codec %q, this agent speaks %q",
			m.Welcome.Proto, ProtoBinary)
	}
	return m.Welcome, conn.SetDeadline(time.Time{})
}

// RunLoop runs the agent with automatic reconnection until ctx ends: a lost
// coordinator (restart, network blip) costs a backoff, not the agent. The
// backoff resets after any session that actually served for a while, so a
// long-lived agent pays the minimum delay on each routine coordinator
// restart instead of ratcheting to the cap.
func (w *Worker) RunLoop(ctx context.Context) error {
	const (
		minBackoff = 100 * time.Millisecond
		maxBackoff = 5 * time.Second
	)
	backoff := minBackoff
	for {
		start := time.Now() //optlint:nondeterministic-ok reconnect backoff bookkeeping, never reaches a sample
		err := w.Run(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if time.Since(start) > time.Second { //optlint:nondeterministic-ok reconnect backoff bookkeeping, never reaches a sample
			backoff = minBackoff // the session was healthy; this is a fresh outage
		}
		// A permanently failing session (wrong port, protocol mismatch)
		// must leave a trail, not just an empty fleet roster.
		if err == nil {
			err = errors.New("connection closed")
		}
		w.events.Event("session_end", "err", err, "reconnect_in", backoff)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// dial connects to the coordinator. With multiple configured addresses it
// rotates: a failed dial or handshake moves the next attempt (so the next
// RunLoop reconnect) to the next address, and a successful session leaves
// the rotation parked on the address that worked, so a healthy coordinator
// keeps its workers until it actually fails.
func (w *Worker) dial(ctx context.Context) (net.Conn, error) {
	if len(w.addrs) == 0 {
		return nil, errors.New("dist: no coordinator address configured")
	}
	addr := w.addrs[w.dialIdx%len(w.addrs)]
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		w.dialIdx++ // next attempt tries the next coordinator
		return nil, err
	}
	return conn, nil
}

// execute runs one task: the objective evaluation (the expensive simulation
// being farmed out), the optional simulated sampling cost, and the
// deterministic draw.
func (w *Worker) execute(t Task) TaskResult {
	mWorkerTasks.Inc()
	obj, ok := w.objectives[t.Objective]
	if !ok {
		return TaskResult{ID: t.ID, Err: fmt.Sprintf("unknown objective %q", t.Objective)}
	}
	f := obj(t.X)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// JSON cannot carry non-finite floats; report the divergence as a
		// task error (plain string, always encodable) so the batch fails
		// loudly instead of the result frame failing to marshal.
		return TaskResult{ID: t.ID, Err: fmt.Sprintf("objective %q is non-finite (%v) at %v", t.Objective, f, t.X)}
	}
	if w.cfg.SampleCost != nil {
		w.cfg.SampleCost(t.X, t.Dt)
	}
	return TaskResult{ID: t.ID, Z: w.draw(t.Seed, t.Skip), F: f}
}

// draw returns the standard-normal variate at position skip of the stream
// seeded seed — the exact value noise.NewStream(..., seed) would produce as
// its (skip+1)-th draw. Sequential sampling of one point hits the cache and
// costs one variate; a cached position behind skip (another agent took the
// draws in between) discards its way forward; only a position ahead of skip
// (a re-dispatched or out-of-order task) starts over from the seed. Every
// route yields the same bits.
func (w *Worker) draw(seed int64, skip int) float64 {
	// The global lock covers only the map lookup; the (possibly long) replay
	// runs under the stream's own lock. A cache reset may orphan an entry
	// another task still holds — harmless, both entries replay the same pure
	// sequence.
	w.mu.Lock()
	sp, ok := w.streams[seed]
	if !ok {
		if len(w.streams) >= maxCachedStreams {
			w.streams = make(map[int64]*streamPos)
		}
		sp = new(streamPos)
		sp.src.Seed(seed)
		w.streams[seed] = sp
	}
	w.mu.Unlock()

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.pos > skip {
		sp.src.Seed(seed)
		sp.pos = 0
		mWorkerReseeds.Inc()
	}
	for ; sp.pos < skip; sp.pos++ {
		sp.src.NormFloat64()
	}
	z := sp.src.NormFloat64()
	sp.pos++
	return z
}
