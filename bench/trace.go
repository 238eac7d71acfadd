package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobstore"
	"repro/internal/sim"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own wrappers around the layer's public calls. Spans of one job
// share Job; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // payload bytes (jobstore.put) or tasks (dist.sample_fleet)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the "wrappers off" run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
	from  int64  // guarded by mu: spans that started before this are not kept

	// The objective's cost is counted, not spanned: it runs tens of
	// thousands of times a second and carries no job identity.
	computeNS    atomic.Int64
	computeCalls atomic.Int64
	// traceWriteNS is the time serve's /trace handlers spent in
	// ResponseWriter.Write and Flush.
	traceWriteNS atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.Start, s.End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.mu.Lock()
	if s.Start >= t.from {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// reset drops what the tracer has recorded so far, and what it has yet to
// record of spans already begun: a server handler adds its span after the
// client has its response, so the warm-up's last spans can arrive late.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.from = int64(time.Since(t.epoch))
	t.mu.Unlock()
	t.computeNS.Store(0)
	t.computeCalls.Store(0)
	t.traceWriteNS.Store(0)
}

// finish resolves what the wrappers could not know when they recorded: a span
// without a job inherits its parent's, and a store span hangs under the span
// of the same job that contains it (serve.submit for the admission Put,
// jobs.run for snapshots and the final Delete). It returns the spans sorted by
// start.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	for i := range spans {
		for p := spans[i].Parent; spans[i].Job == "" && p != 0; {
			pi, ok := byID[p]
			if !ok {
				break
			}
			spans[i].Job, p = spans[pi].Job, spans[pi].Parent
		}
	}
	holders := map[string][]int{} // job -> serve.submit and jobs.run spans
	for i, s := range spans {
		if s.Name == "serve.submit" || s.Name == "jobs.run" {
			holders[s.Job] = append(holders[s.Job], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Name, "jobstore.") {
			continue
		}
		for _, hi := range holders[s.Job] {
			// The final Delete starts just after the finished stamp, so
			// containment is judged on the start alone.
			if h := spans[hi]; h.Start <= s.Start && s.Start <= h.End+int64(time.Millisecond) {
				s.Parent = h.ID
			}
		}
	}
	return spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCost wraps the objective's cost function.
func (t *tracer) tracedCost(cost func([]float64, float64)) func([]float64, float64) {
	if t == nil {
		return cost
	}
	return func(x []float64, dt float64) {
		start := time.Now()
		cost(x, dt)
		t.computeNS.Add(int64(time.Since(start)))
		t.computeCalls.Add(1)
	}
}

// tracedStore wraps a jobstore.Store: one span per Put and Delete.
type tracedStore struct {
	jobstore.Store
	t *tracer
}

func (s tracedStore) Put(id string, payload []byte) error {
	start := time.Now()
	err := s.Store.Put(id, payload)
	s.t.add(span{ID: s.t.newID(), Name: "jobstore.put", Job: id, N: len(payload)}, start, time.Now())
	return err
}

func (s tracedStore) Delete(id string) error {
	start := time.Now()
	err := s.Store.Delete(id)
	s.t.add(span{ID: s.t.newID(), Name: "jobstore.delete", Job: id}, start, time.Now())
	return err
}

// tracedFleet wraps the coordinator's SampleFleet: one span per batch. The
// call carries no job identity (ROADMAP: "dist.Task carries no job or
// tenant"), so these spans are roots.
type tracedFleet struct {
	sim.FleetSampler
	t *tracer
}

func (f tracedFleet) SampleFleet(ctx context.Context, reqs []sim.FleetRequest) ([]sim.FleetResult, error) {
	start := time.Now()
	res, err := f.FleetSampler.SampleFleet(ctx, reqs)
	f.t.add(span{ID: f.t.newID(), Name: "dist.sample_fleet", N: len(reqs)}, start, time.Now())
	return res, err
}

// requestKind names the job-scoped REST call a request is, or "" for the
// rest (healthz, metrics).
func requestKind(r *http.Request) (kind, job string) {
	p := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch parts := strings.Split(p, "/"); {
	case p == r.URL.Path:
		return "", ""
	case r.Method == http.MethodPost && parts[len(parts)-1] == "jobs":
		return "submit", r.URL.Query().Get("id")
	case r.Method == http.MethodGet && parts[0] == "jobs" && len(parts) == 2:
		return "status", parts[1]
	case r.Method == http.MethodGet && parts[0] == "jobs" && len(parts) == 3:
		return parts[2], parts[1] // "result" or "trace"
	}
	return "", ""
}

type spanKey struct{}

// middleware records one span per job-scoped request to next under
// layer.<kind>. The parent comes from the caller's header; the span's own ID
// goes into the request context, where the router's outgoing transport finds
// it (the proxy forwards the context, not the headers).
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, job := requestKind(r)
		if kind == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := t.newID()
		if layer == "serve" && kind == "trace" {
			w = &timedWriter{ResponseWriter: w, ns: &t.traceWriteNS}
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{ID: id, Parent: parent, Name: layer + "." + kind, Job: job}, start, time.Now())
	})
}

// timedWriter times the writes and flushes of a streaming response.
type timedWriter struct {
	http.ResponseWriter
	ns *atomic.Int64
}

func (w *timedWriter) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := w.ResponseWriter.Write(b)
	w.ns.Add(int64(time.Since(start)))
	return n, err
}

func (w *timedWriter) Flush() {
	start := time.Now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.ns.Add(int64(time.Since(start)))
}

// spanTransport is the router's outgoing transport in traced runs: it copies
// the router span's ID from the request context into the header the shard's
// middleware reads.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}
