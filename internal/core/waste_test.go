package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

// TestAbortedSpeculativeBatchWasteCountedOnce is the regression test for the
// waste accounting of candidate batches aborted mid-flight: every prefetched
// candidate of the aborted step — the entry the worker had already picked up
// and sampled as much as the entries withdrawn before dispatch — must be
// counted in Result.SpeculativeWaste exactly once (it used to be counted
// zero times, bypassing the accounting with bare Closes).
//
// The run is fully deterministic: Workers == 1 executes the candidate batch
// serially in submission-rank order, and the SampleCost hook cancels the
// context while the FIRST candidate of the first speculative step is being
// sampled. The batch then aborts with one entry executed and two withdrawn;
// all three are speculative work that can never be consumed, so the waste
// must be exactly 3.
func TestAbortedSpeculativeBatchWasteCountedOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var samples atomic.Int64
	sp := sim.NewLocalSpace(sim.LocalConfig{
		Dim:      3,
		F:        testfunc.Rosenbrock,
		Sigma0:   sim.ConstSigma(10),
		Seed:     4,
		Parallel: true,
		Workers:  1, // serial reference semantics: the interleaving is exact
		SampleCost: func([]float64, float64) {
			// Calls 1-4 are the initial simplex; call 5 is the first
			// candidate of step 1's speculative batch.
			if samples.Add(1) == 5 {
				cancel()
			}
		},
	})
	defer sp.Close()

	cfg := DefaultConfig(DET)
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	cfg.MaxIterations = 5
	cfg.Speculative = true
	initial := [][]float64{{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4}}

	res, err := Run(ctx, sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "canceled" {
		t.Fatalf("Termination = %q, want canceled", res.Termination)
	}
	if res.Iterations != 0 {
		t.Fatalf("Iterations = %d, want 0 (the first step was aborted)", res.Iterations)
	}
	// Exactly the aborted batch's three candidates (reflection, expansion,
	// contraction; no shrink prefetch on the first step), each once.
	if res.SpeculativeWaste != 3 {
		t.Fatalf("SpeculativeWaste = %d, want 3 (one per discarded candidate of the aborted batch)", res.SpeculativeWaste)
	}
	if got := samples.Load(); got != 5 {
		t.Fatalf("sampling increments = %d, want 5 (4 initial + 1 candidate before the abort)", got)
	}
}
