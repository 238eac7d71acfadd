package dist

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// BenchmarkFleetRoundTrip prices the dist layer on its own: a coordinator
// and two capacity-1 agents on loopback TCP, a zero-cost objective, and 4
// goroutines each submitting 4-task batches back to back. One op is one
// batch. ns/task is wall time per completed task; frames/task counts the
// dispatch and results frames the coordinator moved per task.
func BenchmarkFleetRoundTrip(b *testing.B) {
	const submitters, batchTasks = 4, 4
	c := newTestCoordinator(b, Config{})
	zero := map[string]func([]float64) float64{"zero": func([]float64) float64 { return 0 }}
	startWorker(b, c, WorkerConfig{Name: "a", Capacity: 1, Objectives: zero})
	startWorker(b, c, WorkerConfig{Name: "b", Capacity: 1, Objectives: zero})

	before := c.Status()
	sentBefore, answeredBefore := frames(c)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	b.ResetTimer()
	for g := 0; g < submitters; g++ {
		reqs := make([]sim.FleetRequest, batchTasks)
		for i := range reqs {
			reqs[i] = sim.FleetRequest{Objective: "zero", X: []float64{float64(i)}, Seed: int64(g*batchTasks + i), Dt: 0.1}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.SampleFleet(context.Background(), reqs); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	tasks := float64(c.Status().CompletedTasks - before.CompletedTasks)
	sent, answered := frames(c)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tasks, "ns/task")
	b.ReportMetric(float64(sent-sentBefore+answered-answeredBefore)/tasks, "frames/task")
}
