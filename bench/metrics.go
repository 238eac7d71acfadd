package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down. The program reads them from there
// and refuses to emit a metric the file does not name.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

func (f *benchmarkFile) def(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{f.EndToEnd, f.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// value is one measured metric as printed: the contract's {"value","unit"}
// plus the sample count behind a percentile or mean, where there is one.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// emitter collects a run's metrics by name. Emitting a name BENCHMARK.json
// does not list, or one name twice, is a bug in the benchmark and fails the
// run.
type emitter struct {
	file *benchmarkFile
	vals map[string]value
	errs []error
}

func newEmitter(f *benchmarkFile) *emitter { return &emitter{file: f, vals: map[string]value{}} }

func (e *emitter) emitN(name string, v float64, n int) {
	d, ok := e.file.def(name)
	switch {
	case !ok:
		e.errs = append(e.errs, fmt.Errorf("metric %q is not in BENCHMARK.json", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		e.errs = append(e.errs, fmt.Errorf("metric %q is %v", name, v))
	default:
		if _, dup := e.vals[name]; dup {
			e.errs = append(e.errs, fmt.Errorf("metric %q emitted twice", name))
		}
		e.vals[name] = value{Value: v, Unit: d.Unit, N: n}
	}
}

func (e *emitter) emit(name string, v float64) { e.emitN(name, v, 0) }

// percentile returns the p-th percentile (0 < p < 100) of sorted samples by
// nearest rank. It refuses when fewer than ten samples lie beyond it: a p90 of
// 50 samples is decided by five of them.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (want >= 10)", p, n, beyond)
	}
	return sorted[rank-1], nil
}

// mean is the arithmetic mean, and 0 for a layer that recorded nothing.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Mean(v)
}

// ratio is a/b, and 0 when the layer did nothing (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is the part of an obs registry snapshot the benchmark reads: the
// "metrics" object of optd's /healthz decodes straight into it.
type snapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]histo `json:"histograms"`
}

type histo struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

func fromRegistry(s obs.Snapshot) snapshot {
	out := snapshot{Counters: s.Counters, Histograms: make(map[string]histo, len(s.Histograms))}
	for name, h := range s.Histograms {
		out.Histograms[name] = histo{Count: int64(h.Count), Sum: h.Sum}
	}
	return out
}

// combine merges two snapshots series by series with the given sign.
func (a snapshot) combine(b snapshot, sign int64) snapshot {
	out := snapshot{Counters: map[string]int64{}, Histograms: map[string]histo{}}
	for k, v := range a.Counters {
		out.Counters[k] = v
	}
	for k, v := range a.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range b.Counters {
		out.Counters[k] += sign * v
	}
	for k, v := range b.Histograms {
		h := out.Histograms[k]
		h.Count += sign * v.Count
		h.Sum += float64(sign) * v.Sum
		out.Histograms[k] = h
	}
	return out
}

func (a snapshot) add(b snapshot) snapshot { return a.combine(b, 1) }
func (a snapshot) sub(b snapshot) snapshot { return a.combine(b, -1) }

// counter sums every series whose name starts with prefix, so labelled
// variants (dist_frames_total{codec=...,dir=...}) add up.
func (a snapshot) counter(prefix string) float64 {
	sum := int64(0)
	for k, v := range a.Counters {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return float64(sum)
}

// meanUS is a seconds-histogram's mean in microseconds.
func (a snapshot) meanUS(name string) float64 {
	h := a.Histograms[name]
	return ratio(h.Sum*1e6, float64(h.Count))
}
