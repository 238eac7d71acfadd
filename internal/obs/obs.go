// Package obs is the process-wide observability core: dependency-free
// metrics (atomic counters, gauges and fixed-bucket histograms behind a
// named registry) plus a structured NDJSON event logger (events.go) and
// the HTTP exposition surface (/metrics in Prometheus text format and
// net/http/pprof wiring, http.go).
//
// The design contract is that instrumentation must be safe to leave on in
// the hottest paths of the sampling engine:
//
//   - Counter.Inc/Add, Gauge.Set/Add and Histogram.Observe are single
//     atomic operations (the histogram adds a branch-free binary search
//     over its bounds) and never allocate. An AllocsPerRun budget test
//     pins this at 0 allocs per op.
//   - Metric handles are resolved once, at package init of the
//     instrumented package; the registry map is never touched on a hot
//     path.
//   - Instrumentation reads no randomness and influences no control flow,
//     so it cannot move a result bit (the conformance goldens and all
//     determinism tests run with it live; there is no stripped mode).
//
// Metric names follow Prometheus conventions. A name may carry a baked-in
// label set, e.g. `dist_frames_total{codec="binary",dir="tx"}`: the
// registry treats the whole string as the series key, and the /metrics
// renderer groups series by base name so labeled variants share one
// # TYPE line.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; concurrent use is safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//optlint:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic: n must be >= 0 (negative deltas are
// ignored rather than corrupting the series).
//
//optlint:noalloc
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
//
//optlint:noalloc
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, worker
// counts). The zero value is ready to use; concurrent use is safe.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
//
//optlint:noalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrease).
//
//optlint:noalloc
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
//
//optlint:noalloc
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
//
//optlint:noalloc
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
//
//optlint:noalloc
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets is the default histogram bucket layout for durations in
// seconds: roughly-doubling bounds from 50µs to 100s, wide enough to
// cover a single cheap draw batch up to a slow fleet round-trip.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30, 100,
}

// Histogram is a fixed-bucket distribution metric. Bounds are inclusive
// upper limits (Prometheus `le` semantics); one implicit overflow bucket
// catches values above the last bound. Observe is a bounded binary
// search plus three atomic ops and never allocates.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; immutable after creation
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
//
//optlint:noalloc
func (h *Histogram) Observe(v float64) {
	// First index whose bound is >= v; len(bounds) is the overflow bucket.
	i, j := 0, len(h.bounds)
	for i < j {
		m := int(uint(i+j) >> 1)
		if h.bounds[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// View copies the histogram's current state. The copy is isolated:
// observations after View do not alter it.
func (h *Histogram) View() HistogramView {
	v := HistogramView{
		Bounds: h.bounds, // immutable, safe to share
		Counts: make([]uint64, len(h.buckets)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		v.Counts[i] = c
		v.Count += c
	}
	return v
}

// HistogramView is a point-in-time copy of a histogram. Counts is
// per-bucket (not cumulative) and one longer than Bounds; the final entry
// is the overflow bucket. Count is derived from Counts so the two agree
// even if the snapshot raced with writers.
type HistogramView struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Registry owns a namespace of metrics. Lookups are get-or-create and
// mutex-guarded; they are meant for package init, not hot paths — hold
// the returned handle. The zero value is not usable; use NewRegistry or
// the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	kinds    map[string]string // base name -> "counter"|"gauge"|"histogram"
	help     map[string]string // base name -> help text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		kinds:    make(map[string]string),
		help:     make(map[string]string),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that every instrumented
// package registers into and that optd/optworker expose on /metrics.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it on
// first use. An optional help string documents the series (kept per base
// name; the first non-empty wins). Panics if the name is malformed or
// already registered as a different kind.
func (r *Registry) Counter(name string, help ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "counter", help)
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Panics on a malformed name or a kind conflict.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "gauge", help)
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (nil bounds = LatencyBuckets).
// Later lookups ignore bounds. Panics on a malformed name or a kind
// conflict.
func (r *Registry) Histogram(name string, bounds []float64, help ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "histogram", help)
	h := r.hists[name]
	if h == nil {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// register validates the series name and records kind + help under its
// base name. Caller holds r.mu.
func (r *Registry) register(name, kind string, help []string) {
	base, _, err := splitName(name)
	if err != nil {
		panic("obs: " + err.Error())
	}
	if prev, ok := r.kinds[base]; ok && prev != kind {
		panic(fmt.Sprintf("obs: %s already registered as %s, requested %s", base, prev, kind))
	}
	r.kinds[base] = kind
	if len(help) > 0 && help[0] != "" && r.help[base] == "" {
		r.help[base] = help[0]
	}
}

// splitName splits a series name into base name and the raw label text
// (without braces), validating the base against the Prometheus metric
// name charset and the label text for balanced quoting.
func splitName(name string) (base, labels string, err error) {
	base = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") || i == 0 {
			return "", "", fmt.Errorf("malformed series name %q", name)
		}
		base, labels = name[:i], name[i+1:len(name)-1]
		if labels == "" || strings.Count(labels, `"`)%2 != 0 {
			return "", "", fmt.Errorf("malformed label set in %q", name)
		}
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return "", "", fmt.Errorf("invalid metric name %q", name)
		}
	}
	if base == "" {
		return "", "", fmt.Errorf("empty metric name")
	}
	return base, labels, nil
}

// Snapshot is a point-in-time copy of every series in a registry, keyed
// by full series name. It marshals cleanly to JSON (the enriched
// /healthz embeds one) and is isolated from later metric updates.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramView `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramView, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.View()
	}
	return s
}

// names returns every registered series name, sorted, for deterministic
// rendering.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
