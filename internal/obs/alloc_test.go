package obs

import "testing"

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
