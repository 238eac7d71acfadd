package conformance

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// fleetShapes are the fleet sizes the golden matrix is replayed over. They
// span the dispatch regimes: every draw in flight alone, a batch split across
// agents, and more slots than any batch has points, so draws finish in
// arbitrary order.
var fleetShapes = []struct {
	name     string
	agents   int
	capacity int
}{
	{"one-agent-serial", 1, 1},
	{"two-agents", 2, 2},
	{"four-agents-wide", 4, 4},
}

// newFleet starts a coordinator with the given number of registered agents
// on loopback TCP, each executing up to capacity tasks at once.
func newFleet(t *testing.T, agents, capacity int) *dist.Coordinator {
	t.Helper()
	c := dist.NewCoordinator(dist.Config{})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < agents; i++ {
		w := dist.NewWorker(dist.WorkerConfig{
			Addr: c.Addr().String(), Name: fmt.Sprintf("agent-%d", i), Capacity: capacity,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Run(ctx)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := c.WaitWorkers(wctx, agents); err != nil {
		t.Fatalf("agents did not register: %v", err)
	}
	return c
}

// runFleetTrace renders one case's trace with sampling over the fleet.
func runFleetTrace(tb testing.TB, c traceCase, fleet *dist.Coordinator) string {
	tb.Helper()
	f, err := testfunc.ByName(c.objective)
	if err != nil {
		tb.Fatalf("objective %q: %v", c.objective, err)
	}
	space := sim.NewLocalSpace(sim.LocalConfig{
		Dim:            c.dim,
		F:              f.F,
		Sigma0:         sim.ConstSigma(0.5),
		Seed:           defaultSeed,
		Parallel:       true,
		Workers:        1,
		Fleet:          fleet,
		FleetObjective: c.objective,
	})
	defer space.Close()
	var b strings.Builder
	spec := caseSpec(c, func(e core.TraceEvent) { b.WriteString(formatEvent(e)) })
	res, err := core.Run(context.Background(), space, spec)
	if err != nil {
		tb.Fatalf("%s over fleet: %v", c.name(), err)
	}
	b.WriteString(formatResult(res))
	return b.String()
}

// TestFleetGoldenTraces replays the full golden matrix with sampling farmed
// over each fleet shape on TCP, and requires every rendered trace to stay
// byte-identical to its committed golden: the fleet, its size, its binary
// session codec and its dispatch order are invisible to the optimization
// trajectory.
func TestFleetGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay skipped in -short mode")
	}
	for _, shape := range fleetShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			fleet := newFleet(t, shape.agents, shape.capacity)
			for _, c := range matrix() {
				c := c
				t.Run(c.name(), func(t *testing.T) {
					want, err := os.ReadFile(goldenPath(c))
					if err != nil {
						t.Fatalf("missing golden (regenerate with -update): %v", err)
					}
					if got := runFleetTrace(t, c, fleet); got != string(want) {
						t.Fatalf("fleet trace differs from golden %s:\n%s",
							goldenPath(c), firstDiff(string(want), got))
					}
				})
			}
		})
	}
}
