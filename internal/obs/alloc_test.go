package obs

import (
	"io"
	"testing"
	"time"
)

// This file is the allocation-budget layer for the metric hot path.
// Counter/Gauge/Histogram ops sit inside the sampling inner loops
// (sched.DoN, sim batch advance, the dist frame codecs); the contract is
// that recording a metric is pure atomics — zero allocations per op.
// The budget is 0, not "small": any regression fails the build.

func TestMetricOpsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total")
	g := r.Gauge("alloc_gauge")
	h := r.Histogram("alloc_seconds", nil)
	cases := []struct {
		name string
		op   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Value", func() { _ = c.Value() }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(-0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s: %.1f allocs per op, want 0", tc.name, allocs)
		}
	}
}

// jobState stands in for jobs.State: a value of string kind with no methods.
type jobState string

// TestEventAllocBudget: a job_state line as the job manager writes it, three
// key/value pairs with a string-kind state, encodes without allocating in
// the logger. The boxed values are package variables, so the caller's
// conversions to any allocate nothing either.
func TestEventAllocBudget(t *testing.T) {
	l := NewLogger(io.Discard)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC) }
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Event("job_state", "job", budgetJob, "state", budgetState, "resumed", budgetResumed)
	}); allocs != 0 {
		t.Errorf("Event with three pairs: %.1f allocs, want 0", allocs)
	}
}

var (
	budgetJob     any = "j000123"
	budgetState   any = jobState("running")
	budgetResumed any = false
)
