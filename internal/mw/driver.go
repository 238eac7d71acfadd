// Package mw re-implements the University of Wisconsin MW master-worker
// framework that the paper enhanced (section 3.1, Figure 3.1): a Driver
// (MWDriver) manages a set of Workers (MWWorker) executing Tasks (MWTask),
// with all marshalling through pack/unpack buffers and all communication
// through the mpi substrate.
//
// Two features from the paper's enhanced MW are reproduced:
//
//   - Vertex affinity: "each worker is logically associated with a vertex
//     object". SubmitTo pins a task to a specific worker rank so the
//     accumulated sampling state of a simplex vertex stays resident on its
//     worker (and on the server/client processes beneath it; see vertex.go).
//   - Worker restart on the same processor: "When a worker is restarted by
//     the master; it is restarted on the same processors" (section 4.2).
//
// Failed task executions are retried (at-least-once semantics), matching
// MW's fault-tolerant design for opportunistic grid resources.
//
// Space adapts the deployment to sim.Space: NewPoint pins a point to a free
// vertex worker, and SampleBatch submits one sample op per point to its
// pinned worker and waits for all of them — the concurrent sampling round of
// the d+3 active vertices, one virtual clock tick per round.
package mw

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mpi"
)

// Message tags on the master-worker communicator.
const (
	tagInit = iota + 1
	tagWork
	tagResult
	tagFailure
	tagShutdown
)

// AnyWorker requests pooled dispatch to whichever worker is idle first.
const AnyWorker = -1

// Task is one unit of work, the analogue of MWTask: it marshals its work
// description toward the worker and its results back toward the master.
type Task interface {
	// PackWork marshals the work description (master side).
	PackWork(b *mpi.Buffer)
	// UnpackWork unmarshals the work description (worker side).
	UnpackWork(b *mpi.Buffer) error
	// PackResult marshals the computed results (worker side).
	PackResult(b *mpi.Buffer)
	// UnpackResult unmarshals the results into the original task instance
	// (master side).
	UnpackResult(b *mpi.Buffer) error
}

// Worker executes tasks on one rank, the analogue of MWWorker.
type Worker interface {
	// Init consumes the driver's one-time init data before any task runs.
	Init(b *mpi.Buffer) error
	// Execute runs the task in place, filling its result fields. A returned
	// error is reported to the driver, which requeues the task.
	Execute(t Task) error
	// Close releases worker resources at shutdown or restart.
	Close()
}

// Config describes a Driver deployment.
type Config struct {
	// Workers is the number of worker processes (the paper uses d+3: one
	// per vertex plus two trial vertices).
	Workers int
	// NewTask constructs an empty task for unmarshalling on the worker.
	NewTask func() Task
	// NewWorker constructs the worker for a rank (called again on restart).
	NewWorker func(rank int) Worker
	// InitData, if non-nil, packs the one-time worker init payload.
	InitData func(b *mpi.Buffer)
	// MaxRetries bounds per-task requeues after worker failures.
	MaxRetries int
}

// Pending is a submitted task's completion handle.
type Pending struct {
	// ID is the driver-assigned task id.
	ID int
	// Task is the submitted instance; its result fields are filled when
	// Wait returns nil.
	Task Task

	done chan struct{}
	err  error
}

// Wait blocks until the task completes, returning the execution error if the
// task ultimately failed.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

type inflightInfo struct {
	pending *Pending
	rank    int
	pooled  bool
	retries int
}

// Driver is the master process of the MW deployment.
type Driver struct {
	cfg    Config
	world  *mpi.World
	master *mpi.Comm

	mu       sync.Mutex
	inflight map[int]*inflightInfo
	nextID   int
	shutdown bool

	submitCh   chan *inflightInfo
	idleCh     chan int
	doneCh     chan struct{}
	wg         sync.WaitGroup // collector + dispatcher
	workerWG   sync.WaitGroup // worker goroutines
	workerDone map[int]chan struct{}

	stats Stats
}

// Stats reports driver activity counters.
type Stats struct {
	// TasksCompleted counts successfully finished tasks.
	TasksCompleted int
	// TasksFailed counts tasks abandoned after MaxRetries.
	TasksFailed int
	// Retries counts requeues after worker-reported failures.
	Retries int
	// Restarts counts worker restarts.
	Restarts int
}

// NewDriver builds the deployment: one master plus cfg.Workers workers on a
// fresh communicator, mirroring Figure 3.2's top level.
func NewDriver(cfg Config) (*Driver, error) {
	if cfg.Workers < 1 {
		return nil, errors.New("mw: Config.Workers must be >= 1")
	}
	if cfg.NewTask == nil || cfg.NewWorker == nil {
		return nil, errors.New("mw: Config.NewTask and Config.NewWorker are required")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	d := &Driver{
		cfg:        cfg,
		world:      mpi.NewWorld(cfg.Workers + 1),
		inflight:   make(map[int]*inflightInfo),
		submitCh:   make(chan *inflightInfo, 1024),
		idleCh:     make(chan int, cfg.Workers),
		doneCh:     make(chan struct{}),
		workerDone: make(map[int]chan struct{}),
	}
	d.master = d.world.Comm(0)

	for rank := 1; rank <= cfg.Workers; rank++ {
		d.startWorker(rank)
		d.idleCh <- rank
	}
	d.wg.Add(2)
	go d.dispatcher()
	go d.collector()
	return d, nil
}

// startWorker constructs the worker synchronously (so deployment-wide
// resource accounting is complete when NewDriver returns), spawns its serving
// goroutine, and sends its init data.
func (d *Driver) startWorker(rank int) {
	done := make(chan struct{})
	d.mu.Lock()
	d.workerDone[rank] = done
	d.mu.Unlock()
	w := d.cfg.NewWorker(rank)
	d.workerWG.Add(1)
	go func() {
		defer close(done)
		d.workerLoop(rank, w)
	}()
	init := mpi.NewBuffer()
	if d.cfg.InitData != nil {
		d.cfg.InitData(init)
	}
	// Best effort: a closed world surfaces through worker exits.
	_ = d.master.Send(rank, tagInit, init)
}

// workerLoop is the worker "process": it initializes, then serves work
// messages until shutdown.
func (d *Driver) workerLoop(rank int, w Worker) {
	defer d.workerWG.Done()
	comm := d.world.Comm(rank)
	defer w.Close()

	msg, err := comm.Recv(0, tagInit)
	if err != nil {
		return
	}
	if err := w.Init(msg.Buf); err != nil {
		// A worker that cannot initialize reports failure for every task
		// sent to it; simplest is to keep serving and fail each task.
		w = &brokenWorker{err: err}
	}
	for {
		msg, err := comm.Recv(0, mpi.AnyTag)
		if err != nil {
			return // world closed
		}
		switch msg.Tag {
		case tagShutdown:
			return
		case tagWork:
			id, err := msg.Buf.UnpackInt()
			if err != nil {
				continue
			}
			t := d.cfg.NewTask()
			if err := t.UnpackWork(msg.Buf); err != nil {
				d.replyFailure(comm, id, err)
				continue
			}
			if err := w.Execute(t); err != nil {
				d.replyFailure(comm, id, err)
				continue
			}
			reply := mpi.NewBuffer()
			reply.PackInt(id)
			t.PackResult(reply)
			_ = comm.Send(0, tagResult, reply)
		}
	}
}

// brokenWorker fails every task with the initialization error.
type brokenWorker struct{ err error }

func (b *brokenWorker) Init(*mpi.Buffer) error { return nil }
func (b *brokenWorker) Execute(Task) error     { return b.err }
func (b *brokenWorker) Close()                 {}

func (d *Driver) replyFailure(comm *mpi.Comm, id int, err error) {
	reply := mpi.NewBuffer()
	reply.PackInt(id)
	reply.PackString(err.Error())
	_ = comm.Send(0, tagFailure, reply)
}

// Submit queues a task for pooled dispatch to any idle worker.
func (d *Driver) Submit(t Task) (*Pending, error) { return d.submit(t, AnyWorker) }

// SubmitTo pins a task to the given worker rank (1-based), the vertex
// affinity mode. The caller is responsible for not overlapping two in-flight
// tasks on one rank unless serialized execution is acceptable.
func (d *Driver) SubmitTo(rank int, t Task) (*Pending, error) {
	if rank < 1 || rank > d.cfg.Workers {
		return nil, fmt.Errorf("mw: SubmitTo rank %d out of range [1,%d]", rank, d.cfg.Workers)
	}
	return d.submit(t, rank)
}

func (d *Driver) submit(t Task, rank int) (*Pending, error) {
	d.mu.Lock()
	if d.shutdown {
		d.mu.Unlock()
		return nil, errors.New("mw: driver is shut down")
	}
	d.nextID++
	p := &Pending{ID: d.nextID, Task: t, done: make(chan struct{})}
	info := &inflightInfo{pending: p, rank: rank, pooled: rank == AnyWorker}
	d.inflight[p.ID] = info
	d.mu.Unlock()

	if info.pooled {
		select {
		case d.submitCh <- info:
		case <-d.doneCh:
			return nil, errors.New("mw: driver is shut down")
		}
	} else if err := d.sendWork(info); err != nil {
		return nil, err
	}
	return p, nil
}

func (d *Driver) sendWork(info *inflightInfo) error {
	b := mpi.NewBuffer()
	b.PackInt(info.pending.ID)
	info.pending.Task.PackWork(b)
	return d.master.Send(info.rank, tagWork, b)
}

// dispatcher matches pooled submissions with idle workers.
func (d *Driver) dispatcher() {
	defer d.wg.Done()
	for {
		select {
		case <-d.doneCh:
			return
		case info := <-d.submitCh:
			select {
			case <-d.doneCh:
				return
			case rank := <-d.idleCh:
				info.rank = rank
				if err := d.sendWork(info); err != nil {
					d.complete(info.pending, err)
					return
				}
			}
		}
	}
}

// collector receives results and failures from all workers.
func (d *Driver) collector() {
	defer d.wg.Done()
	for {
		msg, err := d.master.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return // world closed
		}
		id, err := msg.Buf.UnpackInt()
		if err != nil {
			continue
		}
		d.mu.Lock()
		info, ok := d.inflight[id]
		if ok {
			delete(d.inflight, id)
		}
		d.mu.Unlock()
		if !ok {
			continue // stale duplicate from a retried task
		}

		switch msg.Tag {
		case tagResult:
			err := info.pending.Task.UnpackResult(msg.Buf)
			if info.pooled {
				d.idleCh <- info.rank
			}
			d.mu.Lock()
			d.stats.TasksCompleted++
			d.mu.Unlock()
			d.complete(info.pending, err)
		case tagFailure:
			emsg, _ := msg.Buf.UnpackString()
			if info.pooled {
				d.idleCh <- info.rank
			}
			d.mu.Lock()
			retriesLeft := info.retries < d.cfg.MaxRetries
			if retriesLeft {
				info.retries++
				d.stats.Retries++
				d.inflight[id] = info
			} else {
				d.stats.TasksFailed++
			}
			d.mu.Unlock()
			if retriesLeft {
				if info.pooled {
					select {
					case d.submitCh <- info:
					case <-d.doneCh:
						d.complete(info.pending, errors.New("mw: driver shut down during retry"))
					}
				} else if err := d.sendWork(info); err != nil {
					d.complete(info.pending, err)
				}
			} else {
				d.complete(info.pending, fmt.Errorf("mw: task %d failed after %d retries: %s", id, d.cfg.MaxRetries, emsg))
			}
		}
	}
}

func (d *Driver) complete(p *Pending, err error) {
	p.err = err
	close(p.done)
}

// Restart tears down the worker on the given rank and starts a fresh one on
// the same rank ("restarted on the same processors"). Restart requires that
// no task is in flight on the rank.
func (d *Driver) Restart(rank int) error {
	if rank < 1 || rank > d.cfg.Workers {
		return fmt.Errorf("mw: Restart rank %d out of range", rank)
	}
	d.mu.Lock()
	for _, info := range d.inflight {
		if info.rank == rank {
			d.mu.Unlock()
			return fmt.Errorf("mw: Restart rank %d: task %d in flight", rank, info.pending.ID)
		}
	}
	d.stats.Restarts++
	done := d.workerDone[rank]
	d.mu.Unlock()
	if err := d.master.Send(rank, tagShutdown, mpi.NewBuffer()); err != nil {
		return err
	}
	// Wait for the old worker to exit before spawning its replacement so the
	// replacement's init message cannot be stolen by the old receive loop.
	<-done
	d.startWorker(rank)
	return nil
}

// Workers returns the configured worker count.
func (d *Driver) Workers() int { return d.cfg.Workers }

// Stats returns a snapshot of the activity counters.
func (d *Driver) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Shutdown stops all workers and releases the communicator. Outstanding
// pending tasks complete with an error.
func (d *Driver) Shutdown() {
	d.mu.Lock()
	if d.shutdown {
		d.mu.Unlock()
		return
	}
	d.shutdown = true
	orphans := make([]*Pending, 0, len(d.inflight))
	for id, info := range d.inflight {
		orphans = append(orphans, info.pending)
		delete(d.inflight, id)
	}
	d.mu.Unlock()

	close(d.doneCh)
	for rank := 1; rank <= d.cfg.Workers; rank++ {
		_ = d.master.Send(rank, tagShutdown, mpi.NewBuffer())
	}
	d.workerWG.Wait()
	d.world.Close()
	d.wg.Wait()
	for _, p := range orphans {
		d.complete(p, errors.New("mw: driver shut down"))
	}
}
