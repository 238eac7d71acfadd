package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestRegistryConcurrentStress is the -race correctness layer: N
// goroutines hammer the same counter, gauge and histogram through fresh
// registry lookups with randomized per-goroutine workloads, and the final
// values must equal the exact sums of what everyone recorded. Any lost
// update, torn float or registry race fails here.
func TestRegistryConcurrentStress(t *testing.T) {
	const goroutines = 16
	r := NewRegistry()
	var (
		wg        sync.WaitGroup
		wantCount int64
		wantGauge float64
		wantObs   uint64
		mu        sync.Mutex
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var localCount int64
			var localGauge float64
			var localObs uint64
			n := 500 + rng.Intn(1500)
			for i := 0; i < n; i++ {
				switch rng.Intn(4) {
				case 0:
					r.Counter("stress_total").Inc()
					localCount++
				case 1:
					d := int64(rng.Intn(10))
					r.Counter("stress_total").Add(d)
					localCount += d
				case 2:
					d := float64(rng.Intn(7)) - 3
					r.Gauge("stress_gauge").Add(d)
					localGauge += d
				case 3:
					r.Histogram("stress_seconds", nil).Observe(rng.Float64())
					localObs++
				}
			}
			mu.Lock()
			wantCount += localCount
			wantGauge += localGauge
			wantObs += localObs
			mu.Unlock()
		}(int64(g) + 1)
	}
	wg.Wait()
	if got := r.Counter("stress_total").Value(); got != wantCount {
		t.Errorf("counter = %d, want %d", got, wantCount)
	}
	if got := r.Gauge("stress_gauge").Value(); got != wantGauge {
		t.Errorf("gauge = %v, want %v", got, wantGauge)
	}
	v := r.Histogram("stress_seconds", nil).View()
	if v.Count != wantObs {
		t.Errorf("histogram count = %d, want %d", v.Count, wantObs)
	}
	var sum uint64
	for _, c := range v.Counts {
		sum += c
	}
	if sum != wantObs {
		t.Errorf("bucket sum = %d, want %d", sum, wantObs)
	}
}

// TestHistogramBucketBoundaries pins the `le` semantics: a value exactly
// on a bound lands in that bound's bucket (inclusive upper limit), one
// ulp above lands in the next, below-first goes to bucket 0, and
// above-last goes to the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0},
		{math.Nextafter(1, 2), 1}, {2, 1},
		{3, 2}, {4, 2},
		{math.Nextafter(4, 5), 3}, {100, 3},
	}
	for _, c := range cases {
		before := h.View()
		h.Observe(c.v)
		after := h.View()
		for i := range after.Counts {
			want := before.Counts[i]
			if i == c.bucket {
				want++
			}
			if after.Counts[i] != want {
				t.Errorf("Observe(%v): bucket %d count %d, want %d", c.v, i, after.Counts[i], want)
			}
		}
	}
	v := h.View()
	if v.Count != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", v.Count, len(cases))
	}
}

// TestSnapshotIsolation: mutating metrics after taking a snapshot must
// not alter the snapshot — views are copies, not aliases.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("iso_total")
	g := r.Gauge("iso_gauge")
	h := r.Histogram("iso_seconds", []float64{1, 10})
	c.Add(3)
	g.Set(7)
	h.Observe(0.5)
	h.Observe(5)

	snap := r.Snapshot()
	c.Add(100)
	g.Set(-1)
	for i := 0; i < 50; i++ {
		h.Observe(100)
	}

	if snap.Counters["iso_total"] != 3 {
		t.Errorf("snapshot counter = %d, want 3", snap.Counters["iso_total"])
	}
	if snap.Gauges["iso_gauge"] != 7 {
		t.Errorf("snapshot gauge = %v, want 7", snap.Gauges["iso_gauge"])
	}
	hv := snap.Histograms["iso_seconds"]
	if hv.Count != 2 || hv.Sum != 5.5 {
		t.Errorf("snapshot histogram count=%d sum=%v, want 2 and 5.5", hv.Count, hv.Sum)
	}
	if got := []uint64{hv.Counts[0], hv.Counts[1], hv.Counts[2]}; got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Errorf("snapshot buckets = %v, want [1 1 0]", got)
	}
}

// TestRegistryKindConflict: one base name cannot be two metric kinds.
func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter(`dup_total{a="1"}`)
	// Same base as a different labeled counter series is fine.
	r.Counter(`dup_total{a="2"}`)
	defer func() {
		if recover() == nil {
			t.Error("registering dup_total as a gauge did not panic")
		}
	}()
	r.Gauge("dup_total")
}

// TestSplitName covers the series-name grammar, both ways.
func TestSplitName(t *testing.T) {
	good := []struct{ name, base, labels string }{
		{"a_total", "a_total", ""},
		{`x{k="v"}`, "x", `k="v"`},
		{`dist_frames_total{codec="binary",dir="tx"}`, "dist_frames_total", `codec="binary",dir="tx"`},
		{"ns:sub_metric", "ns:sub_metric", ""},
	}
	for _, c := range good {
		base, labels, err := splitName(c.name)
		if err != nil || base != c.base || labels != c.labels {
			t.Errorf("splitName(%q) = %q, %q, %v; want %q, %q", c.name, base, labels, err, c.base, c.labels)
		}
	}
	bad := []string{"", "9lead", "has space", "x{", "x{}", `{k="v"}`, `x{k="v"`, `x{k="v}`}
	for _, name := range bad {
		if _, _, err := splitName(name); err == nil {
			t.Errorf("splitName(%q) did not error", name)
		}
	}
}
