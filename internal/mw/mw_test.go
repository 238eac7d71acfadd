package mw

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// echoTask doubles a number on the worker.
type echoTask struct {
	In  float64
	Out float64
}

func (t *echoTask) PackWork(b *mpi.Buffer) { b.PackFloat(t.In) }
func (t *echoTask) UnpackWork(b *mpi.Buffer) error {
	var err error
	t.In, err = b.UnpackFloat()
	return err
}
func (t *echoTask) PackResult(b *mpi.Buffer) { b.PackFloat(t.Out) }
func (t *echoTask) UnpackResult(b *mpi.Buffer) error {
	var err error
	t.Out, err = b.UnpackFloat()
	return err
}

// echoWorker doubles inputs; it can be told to fail the first n executions.
type echoWorker struct {
	mu        sync.Mutex
	failFirst int
	executed  int
}

func (w *echoWorker) Init(*mpi.Buffer) error { return nil }
func (w *echoWorker) Execute(t Task) error {
	w.mu.Lock()
	w.executed++
	fail := w.executed <= w.failFirst
	w.mu.Unlock()
	if fail {
		return errors.New("injected failure")
	}
	et := t.(*echoTask)
	et.Out = 2 * et.In
	return nil
}
func (w *echoWorker) Close() {}

func newEchoDriver(t *testing.T, workers, failFirst int) *Driver {
	t.Helper()
	d, err := NewDriver(Config{
		Workers:   workers,
		NewTask:   func() Task { return &echoTask{} },
		NewWorker: func(rank int) Worker { return &echoWorker{failFirst: failFirst} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	return d
}

func TestDriverPooledTasks(t *testing.T) {
	d := newEchoDriver(t, 4, 0)
	const n = 50
	pendings := make([]*Pending, n)
	tasks := make([]*echoTask, n)
	for i := 0; i < n; i++ {
		tasks[i] = &echoTask{In: float64(i)}
		p, err := d.Submit(tasks[i])
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	for i, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if tasks[i].Out != 2*float64(i) {
			t.Fatalf("task %d: Out = %v", i, tasks[i].Out)
		}
	}
	if got := d.Stats().TasksCompleted; got != n {
		t.Fatalf("TasksCompleted = %d, want %d", got, n)
	}
}

func TestDriverTargetedSubmission(t *testing.T) {
	d := newEchoDriver(t, 3, 0)
	task := &echoTask{In: 21}
	p, err := d.SubmitTo(2, task)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if task.Out != 42 {
		t.Fatalf("Out = %v", task.Out)
	}
	if _, err := d.SubmitTo(99, &echoTask{}); err == nil {
		t.Fatal("SubmitTo out-of-range rank accepted")
	}
}

func TestDriverRetriesFailures(t *testing.T) {
	// Single worker failing its first execution: the retry must succeed.
	d := newEchoDriver(t, 1, 1)
	task := &echoTask{In: 5}
	p, err := d.Submit(task)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("task failed despite retries: %v", err)
	}
	if task.Out != 10 {
		t.Fatalf("Out = %v", task.Out)
	}
	if s := d.Stats(); s.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", s.Retries)
	}
}

func TestDriverGivesUpAfterMaxRetries(t *testing.T) {
	d, err := NewDriver(Config{
		Workers:    1,
		MaxRetries: 2,
		NewTask:    func() Task { return &echoTask{} },
		NewWorker:  func(rank int) Worker { return &echoWorker{failFirst: 1 << 30} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	p, err := d.Submit(&echoTask{In: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("always-failing task reported success")
	}
	if s := d.Stats(); s.TasksFailed != 1 || s.Retries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDriverRestart(t *testing.T) {
	d := newEchoDriver(t, 2, 0)
	task := &echoTask{In: 1}
	p, _ := d.Submit(task)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(1); err != nil {
		t.Fatal(err)
	}
	// The restarted worker must serve new tasks.
	task2 := &echoTask{In: 3}
	p2, err := d.SubmitTo(1, task2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if task2.Out != 6 {
		t.Fatalf("Out after restart = %v", task2.Out)
	}
	if d.Stats().Restarts != 1 {
		t.Fatalf("Restarts = %d", d.Stats().Restarts)
	}
}

func TestDriverShutdownRejectsSubmissions(t *testing.T) {
	d := newEchoDriver(t, 1, 0)
	d.Shutdown()
	if _, err := d.Submit(&echoTask{}); err == nil {
		t.Fatal("Submit after shutdown accepted")
	}
	d.Shutdown() // idempotent
}

func TestDriverConfigValidation(t *testing.T) {
	if _, err := NewDriver(Config{Workers: 0}); err == nil {
		t.Fatal("Workers=0 accepted")
	}
	if _, err := NewDriver(Config{Workers: 1}); err == nil {
		t.Fatal("missing factories accepted")
	}
}

func TestVertexPipelineAggregation(t *testing.T) {
	// Two clients with noiseless objectives f and f+2: the aggregated mean
	// must be f+1 and the variance 0.
	vw, err := NewVertexWorker(VertexWorkerConfig{
		Ns: 2,
		NewSystem: func(sys int) SystemEvaluator {
			offset := float64(2 * sys)
			return &FuncSystem{
				F:   func(x []float64) float64 { return testfunc.Sphere(x) + offset },
				Rng: rand.New(rand.NewSource(int64(sys))),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Close()

	start := NewStartOp([]float64{1, 2})
	if err := vw.Execute(start); err != nil {
		t.Fatal(err)
	}
	samp := NewSampleOp(4)
	if err := vw.Execute(samp); err != nil {
		t.Fatal(err)
	}
	want := testfunc.Sphere([]float64{1, 2}) + 1
	if math.Abs(samp.Mean-want) > 1e-12 {
		t.Fatalf("aggregated mean = %v, want %v", samp.Mean, want)
	}
	if samp.Variance != 0 {
		t.Fatalf("noiseless variance = %v", samp.Variance)
	}
	if samp.Time != 4 {
		t.Fatalf("time = %v, want 4", samp.Time)
	}
	if err := vw.Execute(NewStopOp()); err != nil {
		t.Fatal(err)
	}
}

func TestVertexPipelineNoiseVarianceScalesWithNs(t *testing.T) {
	// With Ns independent clients at sigma0 each, the aggregated variance
	// after time t is sigma0^2/(Ns*t).
	const sigma0 = 10.0
	const ns = 4
	vw, err := NewVertexWorker(VertexWorkerConfig{
		Ns: ns,
		NewSystem: func(sys int) SystemEvaluator {
			return &FuncSystem{
				F:      testfunc.Sphere,
				Sigma0: func([]float64) float64 { return sigma0 },
				Rng:    rand.New(rand.NewSource(int64(100 + sys))),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Close()
	if err := vw.Execute(NewStartOp([]float64{0, 0})); err != nil {
		t.Fatal(err)
	}
	samp := NewSampleOp(25)
	if err := vw.Execute(samp); err != nil {
		t.Fatal(err)
	}
	want := sigma0 * sigma0 / (ns * 25.0)
	if math.Abs(samp.Variance-want) > 1e-9 {
		t.Fatalf("variance = %v, want %v", samp.Variance, want)
	}
}

func TestVertexWorkerFileConduit(t *testing.T) {
	vw, err := NewVertexWorker(VertexWorkerConfig{
		Ns:       1,
		SpoolDir: t.TempDir(),
		NewSystem: func(sys int) SystemEvaluator {
			return &FuncSystem{F: testfunc.Sphere, Rng: rand.New(rand.NewSource(1))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Close()
	if err := vw.Execute(NewStartOp([]float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	samp := NewSampleOp(1)
	if err := vw.Execute(samp); err != nil {
		t.Fatal(err)
	}
	if samp.Mean != 25 {
		t.Fatalf("mean over file conduit = %v, want 25", samp.Mean)
	}
}

func TestVertexOpMarshalling(t *testing.T) {
	op := NewStartOp([]float64{1, 2, 3})
	b := mpi.NewBuffer()
	op.PackWork(b)
	var got VertexOp
	if err := got.UnpackWork(mpi.NewBufferFrom(b.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.Op != op.Op || len(got.X) != 3 || got.X[2] != 3 {
		t.Fatalf("round trip = %+v", got)
	}

	res := &VertexOp{Mean: 1.5, Variance: 0.25, Time: 8}
	rb := mpi.NewBuffer()
	res.PackResult(rb)
	var gotRes VertexOp
	if err := gotRes.UnpackResult(mpi.NewBufferFrom(rb.Bytes())); err != nil {
		t.Fatal(err)
	}
	if gotRes.Mean != 1.5 || gotRes.Variance != 0.25 || gotRes.Time != 8 {
		t.Fatalf("result round trip = %+v", gotRes)
	}
}

func TestExpectedProcessesFormula(t *testing.T) {
	// Table 3.3's rows: d=20 -> 70, d=50 -> 160, d=100 -> 310 with Ns=1.
	cases := []struct{ d, ns, want int }{
		{20, 1, 70},
		{50, 1, 160},
		{100, 1, 310},
	}
	for _, c := range cases {
		if got := ExpectedProcesses(c.d, c.ns); got != c.want {
			t.Errorf("ExpectedProcesses(%d, %d) = %d, want %d", c.d, c.ns, got, c.want)
		}
	}
}

func TestProcessAccountingMatchesFormula(t *testing.T) {
	var counts ProcessCounts
	sp, err := NewSpace(SpaceConfig{
		Dim: 5,
		Ns:  2,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{F: testfunc.Sphere, Rng: rand.New(rand.NewSource(int64(rank*10 + sys)))}
		},
		Counts: &counts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counts.Total(), int64(ExpectedProcesses(5, 2)); got != want {
		t.Fatalf("live processes = %d, want %d", got, want)
	}
	sp.Shutdown()
	if got := counts.Total(); got != 0 {
		t.Fatalf("after shutdown, live processes = %d, want 0", got)
	}
}

func TestSpaceSamplingMatchesLocalSemantics(t *testing.T) {
	sp, err := NewSpace(SpaceConfig{
		Dim: 2,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{F: testfunc.Sphere, Rng: rand.New(rand.NewSource(int64(rank)))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Shutdown()

	p1 := sp.NewPoint([]float64{1, 1})
	p2 := sp.NewPoint([]float64{2, 2})
	if err := sp.SampleBatch(context.Background(), []sim.Point{p1, p2}, 3); err != nil {
		t.Fatal(err)
	}

	if got := sp.Clock().Now(); got != 3 {
		t.Fatalf("parallel clock = %v, want 3", got)
	}
	if e := p1.Estimate(); e.Mean != 2 || e.Time != 3 {
		t.Fatalf("p1 estimate = %+v", e)
	}
	if e := p2.Estimate(); e.Mean != 8 {
		t.Fatalf("p2 estimate = %+v", e)
	}
	if got := sp.Evaluations(); got != 2 {
		t.Fatalf("evaluations = %d, want 2", got)
	}
	p1.Close()
	p2.Close()
}

func TestSpaceSlotReuseAfterClose(t *testing.T) {
	// Dim=1 gives 4 workers; opening and closing 10 points sequentially
	// must never block.
	sp, err := NewSpace(SpaceConfig{
		Dim: 1,
		Ns:  1,
		NewSystem: func(rank, sys int) SystemEvaluator {
			return &FuncSystem{
				F:   func(x []float64) float64 { return x[0] * x[0] },
				Rng: rand.New(rand.NewSource(int64(rank))),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Shutdown()
	for i := 0; i < 10; i++ {
		p := sp.NewPoint([]float64{float64(i)})
		if err := sp.SampleBatch(context.Background(), []sim.Point{p}, 1); err != nil {
			t.Fatal(err)
		}
		if e := p.Estimate(); e.Mean != float64(i*i) {
			t.Fatalf("point %d mean = %v", i, e.Mean)
		}
		p.Close()
	}
}
