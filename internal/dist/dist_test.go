package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// newTestCoordinator starts a coordinator on a loopback port.
func newTestCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	c := NewCoordinator(cfg)
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// startWorker runs an agent against the coordinator and returns an
// idempotent stop function (also registered as cleanup). The agent is fully
// registered when startWorker returns.
func startWorker(t testing.TB, c *Coordinator, cfg WorkerConfig) (stop func()) {
	t.Helper()
	before := c.Workers()
	cfg.Addr = c.Addr().String()
	w := NewWorker(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := c.WaitWorkers(waitCtx, before+1); err != nil {
		t.Fatalf("worker did not register: %v", err)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

// expectedDraw replays the reference stream: the value every correct fleet
// execution of (seed, skip) must return.
func expectedDraw(seed int64, skip int) float64 {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < skip; i++ {
		rng.NormFloat64()
	}
	return rng.NormFloat64()
}

// TestFleetSampleMatchesLocalDraws is the core correctness property: a batch
// spread over two agents returns, for every request, exactly the draw and
// objective value a local execution would produce.
func TestFleetSampleMatchesLocalDraws(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	startWorker(t, c, WorkerConfig{Name: "a", Capacity: 2})
	startWorker(t, c, WorkerConfig{Name: "b", Capacity: 2})

	rng := rand.New(rand.NewSource(3))
	reqs := make([]sim.FleetRequest, 40)
	for i := range reqs {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		reqs[i] = sim.FleetRequest{
			Objective: "rosenbrock",
			X:         x,
			Seed:      rng.Int63(),
			Skip:      rng.Intn(6),
			Dt:        0.1,
		}
	}
	res, err := c.SampleFleet(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := expectedDraw(reqs[i].Seed, reqs[i].Skip); r.Z != want {
			t.Errorf("req %d: Z = %x, want %x", i, r.Z, want)
		}
		if want := testfunc.Rosenbrock(reqs[i].X); r.F != want {
			t.Errorf("req %d: F = %x, want %x", i, r.F, want)
		}
	}
	st := c.Status()
	if st.CompletedTasks != 40 {
		t.Errorf("CompletedTasks = %d, want 40", st.CompletedTasks)
	}
	if st.QueuedTasks != 0 || st.OutstandingTasks != 0 {
		t.Errorf("leftover tasks: %+v", st)
	}
	if len(st.Workers) != 2 || st.Capacity != 4 {
		t.Errorf("fleet status: %+v", st)
	}
}

// recorder returns a "record" objective that logs x[0] once gate opens, and
// a function reading the log.
func recorder(gate <-chan struct{}) (map[string]func([]float64) float64, func() []float64) {
	var mu sync.Mutex
	var order []float64
	objectives := map[string]func([]float64) float64{
		"record": func(x []float64) float64 {
			<-gate
			mu.Lock()
			order = append(order, x[0])
			mu.Unlock()
			return x[0]
		},
	}
	return objectives, func() []float64 {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(order)
	}
}

// recordBatch builds one "record" request per x, in list order.
func recordBatch(xs ...float64) []sim.FleetRequest {
	reqs := make([]sim.FleetRequest, len(xs))
	for i, x := range xs {
		reqs[i] = sim.FleetRequest{Objective: "record", X: []float64{x}, Seed: int64(x), Dt: 0.1}
	}
	return reqs
}

// submit runs SampleFleet in the background; wait joins it and checks every
// result against the local replay.
func submit(t *testing.T, c *Coordinator, reqs []sim.FleetRequest) (wait func()) {
	type answer struct {
		res []sim.FleetResult
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := c.SampleFleet(context.Background(), reqs)
		done <- answer{res, err}
	}()
	return func() {
		t.Helper()
		select {
		case a := <-done:
			if a.err != nil {
				t.Fatal(a.err)
			}
			for i, r := range a.res {
				if want := expectedDraw(reqs[i].Seed, reqs[i].Skip); r.Z != want || r.F != reqs[i].X[0] {
					t.Fatalf("req %d: (Z, F) = (%x, %v), want (%x, %v)", i, r.Z, r.F, want, reqs[i].X[0])
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatal("batch did not complete")
		}
	}
}

// awaitQueue waits until the fleet holds exactly queued tasks in the
// coordinator's queue and outstanding tasks on its workers.
func awaitQueue(t *testing.T, c *Coordinator, queued, outstanding int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		if st.QueuedTasks == queued && st.OutstandingTasks == outstanding {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d queued, %d outstanding: %+v", queued, outstanding, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// frames returns how many dispatch frames the coordinator has sent and how
// many results frames it has received.
func frames(c *Coordinator) (sent, answered uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dispatchFrames, c.resultFrames
}

// TestFleetSpreadsIdleFleet checks that a batch smaller than the idle
// fleet's frames is spread over its executors, not piled on one agent: each
// agent takes its capacity's share of the batch in one frame.
func TestFleetSpreadsIdleFleet(t *testing.T) {
	for _, capacity := range []int{1, 4} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			c := newTestCoordinator(t, Config{})
			gate := make(chan struct{})
			objectives, _ := recorder(gate)
			startWorker(t, c, WorkerConfig{Name: "a", Capacity: capacity, Objectives: objectives})
			startWorker(t, c, WorkerConfig{Name: "b", Capacity: capacity, Objectives: objectives})
			xs := make([]float64, 2*capacity)
			for i := range xs {
				xs[i] = float64(i)
			}
			wait := submit(t, c, recordBatch(xs...))
			awaitQueue(t, c, 0, len(xs))
			st := c.Status()
			for _, w := range st.Workers {
				if w.Outstanding != capacity {
					t.Errorf("worker %s holds %d tasks, want %d: %+v", w.ID, w.Outstanding, capacity, st.Workers)
				}
			}
			if sent, _ := frames(c); sent != 2 {
				t.Errorf("%d tasks went out in %d frames, want one frame per agent", len(xs), sent)
			}
			close(gate)
			wait()
		})
	}
}

// TestFleetDispatchOrder checks the coordinator's one ordering rule on
// capacity-1 agents, where execution order is dispatch order: queued tasks
// dispatch in ascending task id. Batches therefore run in submission order,
// each in list order, and the orphans of a dead agent re-dispatch ahead of
// every task queued after them.
func TestFleetDispatchOrder(t *testing.T) {
	check := func(t *testing.T, got, want []float64) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}

	t.Run("batches", func(t *testing.T) {
		c := newTestCoordinator(t, Config{})
		gate := make(chan struct{})
		objectives, order := recorder(gate)
		startWorker(t, c, WorkerConfig{Name: "solo", Capacity: 1, Objectives: objectives})
		// The agent holds the whole first batch in its two frames, (0, 1)
		// and a short (2); the second batch waits in the coordinator's
		// queue until a frame is answered.
		waitFirst := submit(t, c, recordBatch(0, 1, 2))
		awaitQueue(t, c, 0, 3)
		waitSecond := submit(t, c, recordBatch(10, 11, 12))
		awaitQueue(t, c, 3, 3)
		close(gate)
		waitFirst()
		waitSecond()
		check(t, order(), []float64{0, 1, 2, 10, 11, 12})
	})

	t.Run("orphans", func(t *testing.T) {
		c := newTestCoordinator(t, Config{})
		release := make(chan struct{})
		defer close(release)
		blocking, _ := recorder(release)
		stopDoomed := startWorker(t, c, WorkerConfig{Name: "doomed", Capacity: 1, Objectives: blocking})
		// Tasks 1-4 go to the doomed agent in two frames, then a later batch
		// queues 5 and 6 behind them.
		waitFirst := submit(t, c, recordBatch(0, 1, 2, 3))
		awaitQueue(t, c, 0, 4)
		waitSecond := submit(t, c, recordBatch(10, 11))
		awaitQueue(t, c, 2, 4)
		stopDoomed()
		awaitQueue(t, c, 6, 0)

		open := make(chan struct{})
		close(open)
		objectives, order := recorder(open)
		startWorker(t, c, WorkerConfig{Name: "survivor", Capacity: 1, Objectives: objectives})
		waitFirst()
		waitSecond()
		check(t, order(), []float64{0, 1, 2, 3, 10, 11})
	})
}

// TestFleetRepliesOncePerFrame checks the frame protocol on agents of
// capacity 1 and 3: the coordinator cuts full frames of 2 x capacity tasks
// while the queue holds one, the agent answers every dispatch frame with one
// results frame, and a frame that carries the tail of one batch and the head
// of the next completes both.
func TestFleetRepliesOncePerFrame(t *testing.T) {
	for _, capacity := range []int{1, 3} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			c := newTestCoordinator(t, Config{})
			gate := make(chan struct{})
			objectives, order := recorder(gate)
			startWorker(t, c, WorkerConfig{Name: "agent", Capacity: capacity, Objectives: objectives})
			size := frameTasks(capacity)

			// Batch A fills both frames in flight and leaves one task
			// queued; batch B's single task queues behind it, so the third
			// frame carries A's last task and B's only one.
			xs := make([]float64, 2*size+1)
			for i := range xs {
				xs[i] = float64(i)
			}
			waitA := submit(t, c, recordBatch(xs...))
			awaitQueue(t, c, 1, 2*size)
			if sent, _ := frames(c); sent != 2 {
				t.Fatalf("%d tasks went out in %d frames, want 2 full frames of %d", 2*size, sent, size)
			}
			waitB := submit(t, c, recordBatch(100))
			awaitQueue(t, c, 2, 2*size)
			close(gate)
			waitA()
			waitB()

			if sent, answered := frames(c); sent != 3 || answered != 3 {
				t.Errorf("dispatch frames %d, results frames %d; want 3 and 3, one reply per frame",
					sent, answered)
			}
			if got := order(); len(got) != len(xs)+1 {
				t.Errorf("agent executed %d tasks, want %d", len(got), len(xs)+1)
			}
			if capacity == 1 {
				if got, want := order(), append(slices.Clone(xs), 100); !slices.Equal(got, want) {
					t.Errorf("execution order %v, want %v", got, want)
				}
			}

			// Under concurrent batches every dispatch frame is still answered
			// exactly once.
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 10; round++ {
						base := float64(1000 * (g*10 + round + 1))
						if _, err := c.SampleFleet(context.Background(), recordBatch(base, base+1, base+2)); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if sent, answered := frames(c); sent != answered {
				t.Errorf("dispatch frames %d, results frames %d; want one reply per frame", sent, answered)
			}
			if st := c.Status(); st.CompletedTasks != uint64(len(xs)+1+4*10*3) {
				t.Errorf("CompletedTasks = %d, want %d", st.CompletedTasks, len(xs)+1+4*10*3)
			}
		})
	}
}

// TestFleetRedispatchOnWorkerDeath kills an agent while it holds dispatched
// tasks (its objective blocks) and checks the survivor completes the batch
// with the exact same values — the deterministic re-dispatch contract. In
// "inside-frame" the agent has executed the first task of a two-task frame
// and holds its result for the frame's one reply when it dies: both tasks
// must re-dispatch, in task-id order.
func TestFleetRedispatchOnWorkerDeath(t *testing.T) {
	for _, row := range []struct {
		name          string
		doomedCap     int
		tasks         int
		passes        int  // tasks the doomed agent completes before its objective blocks
		survivorFirst bool // the survivor registers before the batch is submitted
	}{
		{name: "executing", doomedCap: 4, tasks: 10, survivorFirst: true},
		{name: "inside-frame", doomedCap: 1, tasks: 2, passes: 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := newTestCoordinator(t, Config{})

			entered := make(chan struct{}, 64)
			release := make(chan struct{})
			var calls atomic.Int32
			blocking := map[string]func([]float64) float64{
				"sphere": func(x []float64) float64 {
					if int(calls.Add(1)) > row.passes {
						entered <- struct{}{}
						<-release
					}
					return testfunc.Sphere(x)
				},
			}
			defer close(release)
			var mu sync.Mutex
			var order []float64
			recording := map[string]func([]float64) float64{
				"sphere": func(x []float64) float64 {
					mu.Lock()
					order = append(order, x[0])
					mu.Unlock()
					return testfunc.Sphere(x)
				},
			}
			stopDoomed := startWorker(t, c, WorkerConfig{Name: "doomed", Capacity: row.doomedCap, Objectives: blocking})
			if row.survivorFirst {
				startWorker(t, c, WorkerConfig{Name: "survivor", Capacity: 1, Objectives: recording})
			}

			reqs := make([]sim.FleetRequest, row.tasks)
			for i := range reqs {
				reqs[i] = sim.FleetRequest{
					Objective: "sphere",
					X:         []float64{float64(i), 1},
					Seed:      int64(100 + i),
					Skip:      i % 3,
					Dt:        0.5,
				}
			}
			type answer struct {
				res []sim.FleetResult
				err error
			}
			got := make(chan answer, 1)
			go func() {
				res, err := c.SampleFleet(context.Background(), reqs)
				got <- answer{res, err}
			}()

			// Wait until the doomed worker is actually executing (it blocks),
			// then kill it; its outstanding tasks must be re-dispatched to the
			// survivor.
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("doomed worker never started a task")
			}
			if row.passes > 0 {
				// The first task has landed, but its frame has not: no reply
				// may have left the agent.
				st := c.Status()
				if _, answered := frames(c); st.CompletedTasks != 0 || answered != 0 || st.OutstandingTasks != row.tasks {
					t.Fatalf("before the kill: %+v, %d results frames; want the whole frame outstanding and unanswered", st, answered)
				}
			}
			stopDoomed()
			if !row.survivorFirst {
				// Both tasks of the frame go back to the queue before a
				// survivor exists to take them.
				awaitQueue(t, c, row.tasks, 0)
				startWorker(t, c, WorkerConfig{Name: "survivor", Capacity: 1, Objectives: recording})
			}

			select {
			case a := <-got:
				if a.err != nil {
					t.Fatal(a.err)
				}
				for i, r := range a.res {
					if want := expectedDraw(reqs[i].Seed, reqs[i].Skip); r.Z != want {
						t.Errorf("req %d: Z = %x, want %x", i, r.Z, want)
					}
					if want := testfunc.Sphere(reqs[i].X); r.F != want {
						t.Errorf("req %d: F = %x, want %x", i, r.F, want)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("batch did not complete after worker death")
			}
			st := c.Status()
			if st.DeadWorkers != 1 {
				t.Errorf("DeadWorkers = %d, want 1", st.DeadWorkers)
			}
			if st.RequeuedTasks == 0 {
				t.Error("no tasks were requeued although the dead worker held dispatched tasks")
			}
			if row.passes > 0 {
				mu.Lock()
				defer mu.Unlock()
				if st.RequeuedTasks != uint64(row.tasks) || !slices.Equal(order, []float64{0, 1}) {
					t.Errorf("requeued %d tasks, survivor ran %v; want both tasks of the frame, in id order [0 1]",
						st.RequeuedTasks, order)
				}
			}
		})
	}
}

// TestFleetHeartbeatTimeout registers a silent agent (hello, then nothing):
// the janitor must declare it dead and hand its tasks to a live worker.
func TestFleetHeartbeatTimeout(t *testing.T) {
	c := newTestCoordinator(t, Config{Heartbeat: 25 * time.Millisecond, Timeout: 100 * time.Millisecond})

	// A hand-rolled mute worker: registers big capacity so it wins the
	// initial dispatch, then never heartbeats and never answers.
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Message{Type: TypeHello, Hello: &Hello{Name: "mute", Capacity: 64, Protos: []string{"binary"}}}); err != nil {
		t.Fatal(err)
	}
	var welcome Message
	if err := ReadFrame(conn, &welcome); err != nil || welcome.Type != TypeWelcome {
		t.Fatalf("welcome: %v %+v", err, welcome)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitWorkers(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	reqs := []sim.FleetRequest{
		{Objective: "sphere", X: []float64{1, 2}, Seed: 11, Dt: 0.1},
		{Objective: "sphere", X: []float64{3, 4}, Seed: 12, Skip: 2, Dt: 0.1},
	}
	got := make(chan error, 1)
	var res []sim.FleetResult
	go func() {
		var err error
		res, err = c.SampleFleet(context.Background(), reqs)
		got <- err
	}()

	// Give the dispatcher time to hand the tasks to the mute worker, then
	// bring up a live one; only the heartbeat timeout can free the tasks.
	time.Sleep(30 * time.Millisecond)
	startWorker(t, c, WorkerConfig{Name: "live", Capacity: 1})

	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch never completed; heartbeat timeout did not fire")
	}
	for i, r := range res {
		if want := expectedDraw(reqs[i].Seed, reqs[i].Skip); r.Z != want {
			t.Errorf("req %d: Z = %x, want %x", i, r.Z, want)
		}
	}
	if st := c.Status(); st.DeadWorkers != 1 {
		t.Errorf("DeadWorkers = %d, want 1 (the mute worker)", st.DeadWorkers)
	}
}

// TestFleetUnknownObjectiveFailsBatch checks a worker that cannot resolve
// the objective fails the batch with a descriptive error instead of wedging
// it.
func TestFleetUnknownObjectiveFailsBatch(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	startWorker(t, c, WorkerConfig{Name: "a", Capacity: 2})
	_, err := c.SampleFleet(context.Background(), []sim.FleetRequest{
		{Objective: "no-such-objective", X: []float64{1}, Seed: 1, Dt: 0.1},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown objective") {
		t.Fatalf("err = %v, want unknown objective", err)
	}
	if st := c.Status(); st.QueuedTasks != 0 || st.OutstandingTasks != 0 {
		t.Errorf("failed batch left tasks behind: %+v", st)
	}
}

// TestFleetSampleContextCancel checks an empty fleet queues tasks until the
// caller gives up, and that the abandoned tasks are withdrawn — and only
// they: the live batches queued before and after it keep their tasks and
// complete once an agent joins.
func TestFleetSampleContextCancel(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	waitBefore := submit(t, c, recordBatch(1, 2))
	awaitQueue(t, c, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := c.SampleFleet(ctx, recordBatch(3, 4, 5))
		canceled <- err
	}()
	awaitQueue(t, c, 5, 0)
	waitAfter := submit(t, c, recordBatch(6))
	awaitQueue(t, c, 6, 0)
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context canceled", err)
	}
	// Regression: the queue itself must shrink, not just the live count — an
	// agent-less coordinator accumulating abandoned-task corpses is a leak.
	c.mu.Lock()
	var queued []uint64
	for _, tk := range c.queue {
		queued = append(queued, tk.id)
	}
	live := len(c.tasks)
	c.mu.Unlock()
	if !slices.Equal(queued, []uint64{1, 2, 6}) || live != 3 {
		t.Errorf("after the cancel the queue holds tasks %v and %d are live, want [1 2 6] and 3", queued, live)
	}
	if st := c.Status(); st.QueuedTasks != 3 {
		t.Errorf("QueuedTasks = %d, want the live batches' 3", st.QueuedTasks)
	}

	open := make(chan struct{})
	close(open)
	objectives, order := recorder(open)
	startWorker(t, c, WorkerConfig{Name: "late", Capacity: 1, Objectives: objectives})
	waitBefore()
	waitAfter()
	if got := order(); !slices.Equal(got, []float64{1, 2, 6}) {
		t.Errorf("execution order %v, want [1 2 6]: the abandoned batch must not run", got)
	}
}

// TestFleetRejectsNonFiniteValues pins the JSON-boundary guards: non-finite
// request payloads are rejected before dispatch, and a worker whose
// objective diverges to a non-finite value fails the batch with a
// descriptive error instead of an unencodable result frame wedging the run.
func TestFleetRejectsNonFiniteValues(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	startWorker(t, c, WorkerConfig{Name: "a", Capacity: 1, Objectives: map[string]func([]float64) float64{
		"diverge": func([]float64) float64 { return math.Inf(1) },
	}})

	if _, err := c.SampleFleet(context.Background(), []sim.FleetRequest{
		{Objective: "diverge", X: []float64{math.NaN()}, Seed: 1, Dt: 0.1},
	}); err == nil || !strings.Contains(err.Error(), "non-finite coordinate") {
		t.Errorf("NaN coordinate: err = %v, want non-finite rejection", err)
	}
	if _, err := c.SampleFleet(context.Background(), []sim.FleetRequest{
		{Objective: "diverge", X: []float64{1}, Seed: 1, Dt: math.Inf(1)},
	}); err == nil || !strings.Contains(err.Error(), "non-finite dt") {
		t.Errorf("Inf dt: err = %v, want non-finite rejection", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.SampleFleet(ctx, []sim.FleetRequest{
		{Objective: "diverge", X: []float64{1}, Seed: 1, Dt: 0.1},
	}); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("divergent objective: err = %v, want non-finite task error", err)
	}
}

// TestFleetCloseFailsPending checks Close unblocks waiting batches with
// ErrClosed and further SampleFleet calls refuse immediately.
func TestFleetCloseFailsPending(t *testing.T) {
	c := NewCoordinator(Config{})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.SampleFleet(context.Background(), []sim.FleetRequest{
			{Objective: "sphere", X: []float64{1, 1}, Seed: 1, Dt: 0.1},
		})
		got <- err
	}()
	// Let the batch enqueue before closing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := c.Status(); st.QueuedTasks == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending batch err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the pending batch")
	}
	if _, err := c.SampleFleet(context.Background(), []sim.FleetRequest{{Objective: "sphere", Seed: 1, Dt: 0.1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close err = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

// TestFleetWorkerReconnect checks RunLoop agents survive a coordinator-side
// connection drop: the agent re-registers and keeps serving.
func TestFleetWorkerReconnect(t *testing.T) {
	c := newTestCoordinator(t, Config{Heartbeat: 20 * time.Millisecond, Timeout: 80 * time.Millisecond})
	w := NewWorker(WorkerConfig{Addr: c.Addr().String(), Name: "phoenix", Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.RunLoop(ctx)
	}()
	defer func() { cancel(); <-done }()

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := c.WaitWorkers(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	// Sever the registered connection from the coordinator side.
	c.mu.Lock()
	for _, rw := range c.workers {
		rw.conn.Close()
	}
	c.mu.Unlock()

	// The agent must come back on its own and execute a batch.
	reqs := []sim.FleetRequest{{Objective: "sphere", X: []float64{2, 2}, Seed: 21, Dt: 0.1}}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	res, err := c.SampleFleet(sctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedDraw(21, 0); res[0].Z != want {
		t.Errorf("Z = %x, want %x", res[0].Z, want)
	}
}

// TestFleetWorkerMultiAddressFailover checks an agent configured with a
// coordinator failover list re-homes: when its current coordinator dies,
// the reconnect loop rotates to the next address and registers there.
func TestFleetWorkerMultiAddressFailover(t *testing.T) {
	c1 := NewCoordinator(Config{})
	if err := c1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c2 := newTestCoordinator(t, Config{})
	w := NewWorker(WorkerConfig{
		Addrs:    []string{c1.Addr().String(), c2.Addr().String()},
		Name:     "nomad",
		Capacity: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.RunLoop(ctx)
	}()
	defer func() { cancel(); <-done }()

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := c1.WaitWorkers(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	// First coordinator dies for good; the agent must surface on the
	// second and serve a batch there.
	c1.Close()
	waitCtx2, waitCancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel2()
	if err := c2.WaitWorkers(waitCtx2, 1); err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	res, err := c2.SampleFleet(sctx, []sim.FleetRequest{{Objective: "sphere", X: []float64{2, 2}, Seed: 33, Dt: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedDraw(33, 0); res[0].Z != want {
		t.Errorf("Z = %x, want %x", res[0].Z, want)
	}
}

// TestFleetConcurrentBatches checks many simultaneous SampleFleet callers
// (the jobs manager's shape: one batch per running job) all complete
// correctly over one small fleet.
func TestFleetConcurrentBatches(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	startWorker(t, c, WorkerConfig{Name: "a", Capacity: 3})
	startWorker(t, c, WorkerConfig{Name: "b", Capacity: 2})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 5; round++ {
				reqs := make([]sim.FleetRequest, 8)
				for i := range reqs {
					reqs[i] = sim.FleetRequest{
						Objective: "sphere",
						X:         []float64{rng.Float64(), rng.Float64()},
						Seed:      rng.Int63(),
						Skip:      rng.Intn(4),
						Dt:        0.1,
					}
				}
				res, err := c.SampleFleet(context.Background(), reqs)
				if err != nil {
					errs <- err
					return
				}
				for i, r := range res {
					if want := expectedDraw(reqs[i].Seed, reqs[i].Skip); r.Z != want {
						errs <- fmt.Errorf("goroutine %d round %d req %d: Z = %x, want %x", g, round, i, r.Z, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
