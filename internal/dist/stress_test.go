package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestFleetStressChaos is the fleet's survival property under -race: many
// concurrent batch submitters over a small fleet whose agents are being
// killed and replaced the whole time. Every single result must still equal
// the local replay — worker churn may delay a draw, never change it — and
// the coordinator's books must balance at the end.
func TestFleetStressChaos(t *testing.T) {
	c := newTestCoordinator(t, Config{Heartbeat: 20 * time.Millisecond, Timeout: 100 * time.Millisecond})

	// The starting fleet: three agents with mixed capacity.
	startWorker(t, c, WorkerConfig{Name: "w0", Capacity: 2})
	startWorker(t, c, WorkerConfig{Name: "w1", Capacity: 1})
	startWorker(t, c, WorkerConfig{Name: "w2", Capacity: 3})

	var stop atomic.Bool
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		// The chaos monkey: every ~25ms kill a random agent and bring up a
		// replacement, so batches keep landing on a churning fleet. Replacement
		// agents use RunLoop (auto-reconnect), doubling as reconnect coverage.
		defer chaos.Done()
		rng := rand.New(rand.NewSource(1))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var agents []func()
		defer func() {
			for _, kill := range agents {
				kill()
			}
		}()
		for n := 0; !stop.Load(); n++ {
			time.Sleep(25 * time.Millisecond)
			// Kill one registered connection straight at the socket — the
			// bluntest death the coordinator can observe.
			c.mu.Lock()
			victims := make([]*remoteWorker, 0, len(c.workers))
			for _, w := range c.workers {
				victims = append(victims, w)
			}
			c.mu.Unlock()
			if len(victims) > 1 { // keep at least one agent alive
				victims[rng.Intn(len(victims))].conn.Close()
			}
			w := NewWorker(WorkerConfig{Addr: c.Addr().String(), Name: fmt.Sprintf("r%d", n), Capacity: 1 + rng.Intn(3)})
			wctx, wcancel := context.WithCancel(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.RunLoop(wctx)
			}()
			agents = append(agents, func() { wcancel(); <-done })
		}
	}()

	var submitters sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for round := 0; round < 6; round++ {
				reqs := make([]sim.FleetRequest, 12)
				for i := range reqs {
					reqs[i] = sim.FleetRequest{
						Objective: "rosenbrock",
						X:         []float64{rng.Float64(), rng.Float64(), rng.Float64()},
						Seed:      rng.Int63(),
						Skip:      rng.Intn(5),
						Dt:        0.1,
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := c.SampleFleet(ctx, reqs)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				for i, r := range res {
					if want := expectedDraw(reqs[i].Seed, reqs[i].Skip); r.Z != want {
						errs <- fmt.Errorf("goroutine %d round %d req %d: Z = %x, want %x (worker churn changed a value)", g, round, i, r.Z, want)
						return
					}
				}
			}
		}()
	}
	submitters.Wait()
	stop.Store(true)
	chaos.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := c.Status()
	if want := uint64(8 * 6 * 12); st.CompletedTasks != want {
		t.Errorf("CompletedTasks = %d, want %d", st.CompletedTasks, want)
	}
	if st.QueuedTasks != 0 || st.OutstandingTasks != 0 {
		t.Errorf("books do not balance after the storm: %+v", st)
	}
}
