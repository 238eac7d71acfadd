// Package serve is the optd HTTP/JSON layer: it adapts a jobs.Manager
// (and optionally a dist.Coordinator fleet) to the REST surface cmd/optd
// exposes and the shard router (internal/shard) proxies over the wire. The
// bench harness and tests embed the exact production handler in-process.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/h1"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// Config wires the handler's collaborators.
type Config struct {
	// Mgr is the job manager, required.
	Mgr *jobs.Manager
	// Fleet is the remote-worker coordinator when the server has one; its
	// status is served in /healthz. Nil without a fleet.
	Fleet *dist.Coordinator
	// DefaultSeed is applied to submitted specs that leave Seed zero, so
	// every job is reproducible from the server log plus its spec.
	DefaultSeed int64
	// Events, when non-nil, receives failover events.
	Events *obs.Logger
}

// server adapts a jobs.Manager to HTTP/JSON. Endpoints:
//
//	GET    /healthz                    readiness probe: build info, uptime,
//	                                   pool width, job/tenant counts, store kind
//	GET    /strategies                 the registered optimization strategies
//	POST   /v1/jobs                    submit a job (body: jobs.Spec) -> {"id": ...};
//	                                   ?id= submits under a caller-chosen ID
//	                                   (the shard router's placement contract)
//	GET    /v1/jobs                    list all jobs
//	GET    /v1/jobs/{id}               job status
//	GET    /v1/jobs/{id}/result        final result (409 until terminal)
//	GET    /v1/jobs/{id}/trace         NDJSON stream of progress events
//	POST   /v1/jobs/{id}/cancel        request cancellation
//	DELETE /v1/jobs/{id}               request cancellation (alias)
//	GET    /v1/tenants                 per-tenant quota accounting
//	POST   /v1/tenants/{tenant}/jobs   submit scoped to the tenant
//	GET    /v1/tenants/{tenant}/jobs   list the tenant's jobs
//	POST   /v1/failover                adopt a dead replica's job store
//	                                   (body: {"dir": ...}; the directory
//	                                   names its own layout)
//	GET    /metrics                    Prometheus text exposition
//	GET    /debug/pprof/...            net/http/pprof profiles
//
// Tenant-quota rejections map to 429. A known path with the wrong method
// returns 405 with an Allow header and a JSON error body, so load
// balancers and clients see a structured answer instead of the mux
// default.
type server struct {
	cfg Config
	// started anchors the /healthz uptime report.
	started time.Time

	mu sync.Mutex
	// adoptions holds every store directory this server has adopted or is
	// adopting, keyed by its cleaned path. Guarded by mu.
	adoptions map[string]*adoption
}

// adoption is one /v1/failover of a store directory. Its fields are set
// before done closes.
type adoption struct {
	done   chan struct{}
	opened bool     // the store opened and the manager took it over
	ids    []string // the jobs recovered from it
	err    error    // why opening or recovery failed
}

// New builds the HTTP handler.
func New(cfg Config) http.Handler {
	s := &server{cfg: cfg, started: time.Now(), adoptions: make(map[string]*adoption)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.health)
	mux.HandleFunc("GET /strategies", s.strategies)
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /v1/tenants", s.tenants)
	mux.HandleFunc("POST /v1/tenants/{tenant}/jobs", s.submit)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs", s.list)
	mux.HandleFunc("POST /v1/failover", s.failover)
	obs.Default().RegisterDebug(mux)
	// Method-less fallbacks: less specific than the method patterns above,
	// they match only requests whose method is not served on that path.
	mux.HandleFunc("/healthz", h1.MethodNotAllowed("GET"))
	mux.HandleFunc("/strategies", h1.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/jobs", h1.MethodNotAllowed("GET", "POST"))
	mux.HandleFunc("/v1/jobs/{id}", h1.MethodNotAllowed("GET", "DELETE"))
	mux.HandleFunc("/v1/jobs/{id}/result", h1.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/jobs/{id}/trace", h1.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/jobs/{id}/cancel", h1.MethodNotAllowed("POST"))
	mux.HandleFunc("/v1/tenants", h1.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/tenants/{tenant}/jobs", h1.MethodNotAllowed("GET", "POST"))
	mux.HandleFunc("/v1/failover", h1.MethodNotAllowed("POST"))
	mux.HandleFunc("/metrics", h1.MethodNotAllowed("GET"))
	return mux
}

// WriteErr maps manager errors to HTTP statuses.
func WriteErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, jobs.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrQuotaExceeded), errors.Is(err, jobs.ErrRateLimited):
		code = http.StatusTooManyRequests
	}
	h1.WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds a request body. A job spec or a failover request is a
// few hundred bytes; a longer body is refused with 413 once this much of it
// has been read.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, rejecting unknown fields and
// reading at most maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeBodyErr answers a body that did not decode (err may be nil for a body
// that decoded but is invalid): 413 past maxBodyBytes, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		h1.WriteJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("%s: body exceeds %d bytes", what, tooLong.Limit),
		})
		return
	}
	h1.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("%s: %v", what, err)})
}

// buildInfo extracts the Go toolchain version and VCS revision baked into
// the binary (empty when built without VCS stamping, e.g. in tests).
func buildInfo() (goVersion, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	goVersion = bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return goVersion, revision
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	goVersion, revision := buildInfo()
	st := s.cfg.Mgr.Stats()
	body := map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"go_version":     goVersion,
		"revision":       revision,
		"workers":        st.Workers,
		"max_concurrent": st.MaxConcurrent,
		"jobs": map[string]int{
			"queued":   st.Queued,
			"running":  st.Running,
			"done":     st.Done,
			"failed":   st.Failed,
			"canceled": st.Canceled,
		},
	}
	if st.Store != "" {
		body["store"] = st.Store
	}
	if st.Tenants > 0 {
		body["tenants"] = st.Tenants
	}
	if s.cfg.Fleet != nil {
		body["fleet"] = s.cfg.Fleet.Status()
	}
	body["metrics"] = obs.Default().Snapshot()
	h1.WriteJSON(w, http.StatusOK, body)
}

// strategies lists what this server can run: every strategy in the core
// registry, with aliases and resumability (resumable strategies support
// durable checkpoint/recover across server restarts).
func (s *server) strategies(w http.ResponseWriter, r *http.Request) {
	h1.WriteJSON(w, http.StatusOK, map[string]any{"strategies": core.StrategyInfos()})
}

// submit serves POST /v1/jobs and POST /v1/tenants/{tenant}/jobs. The
// tenant-scoped form forces the spec into the path's namespace (a spec
// naming a different tenant is rejected — the path is the authority). The
// optional ?id= query submits under a caller-chosen job ID; the shard
// router uses it so job placement is a pure function of the ID.
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeBodyErr(w, "bad spec", err)
		return
	}
	if tenant := r.PathValue("tenant"); tenant != "" {
		if spec.Tenant != "" && spec.Tenant != tenant {
			h1.WriteJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("spec tenant %q conflicts with path tenant %q", spec.Tenant, tenant),
			})
			return
		}
		spec.Tenant = tenant
	}
	if spec.Seed == 0 {
		spec.Seed = s.cfg.DefaultSeed
	}
	var id string
	var err error
	if want := r.URL.Query().Get("id"); want != "" {
		id, err = s.cfg.Mgr.SubmitWithID(want, spec)
	} else {
		id, err = s.cfg.Mgr.Submit(spec)
	}
	if err != nil {
		if errors.Is(err, jobs.ErrClosed) || errors.Is(err, jobs.ErrQuotaExceeded) || errors.Is(err, jobs.ErrRateLimited) || errors.Is(err, jobs.ErrStore) {
			WriteErr(w, err)
			return
		}
		h1.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	h1.WriteJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// list serves GET /v1/jobs (all jobs) and GET /v1/tenants/{tenant}/jobs
// (that tenant's jobs only).
func (s *server) list(w http.ResponseWriter, r *http.Request) {
	all := s.cfg.Mgr.List()
	if tenant := r.PathValue("tenant"); tenant != "" {
		scoped := make([]jobs.Status, 0, len(all))
		for _, st := range all {
			if st.Tenant == tenant {
				scoped = append(scoped, st)
			}
		}
		all = scoped
	}
	h1.WriteJSON(w, http.StatusOK, all)
}

func (s *server) tenants(w http.ResponseWriter, r *http.Request) {
	h1.WriteJSON(w, http.StatusOK, map[string]any{"tenants": s.cfg.Mgr.Tenants()})
}

// failoverRequest is the POST /v1/failover body.
type failoverRequest struct {
	// Dir is the dead replica's store directory (shared or replicated
	// storage both replicas can reach). The store opens in the layout the
	// directory holds (jobstore.Open), so the request names no kind.
	Dir string `json:"dir"`
}

// failover adopts a dead replica's job store: every job recorded there is
// re-enqueued here (resuming from its last snapshot), exactly like the
// fleet coordinator re-dispatches a dead worker's tasks. The router calls
// this on the shard that inherits a dead shard's hash range.
//
// A store is opened at most once per server. The router gives up on an
// adoption after DeadAfter and asks again, while this handler finishes the
// first one regardless; a repeated request for the same dir waits for that
// adoption and answers with its outcome instead of opening the store a
// second time (a second handle could truncate or compact the WAL under the
// first). Only a store that failed to open may be asked for again.
func (s *server) failover(w http.ResponseWriter, r *http.Request) {
	var req failoverRequest
	if err := decodeBody(w, r, &req); err != nil || req.Dir == "" {
		writeBodyErr(w, "bad failover request", err)
		return
	}
	dir := filepath.Clean(req.Dir)
	s.mu.Lock()
	a, repeat := s.adoptions[dir]
	if !repeat {
		a = &adoption{done: make(chan struct{})}
		s.adoptions[dir] = a
	}
	s.mu.Unlock()
	if !repeat {
		s.adopt(a, dir)
	}
	select {
	case <-a.done:
	case <-r.Context().Done():
		return // the caller gave up; the adoption it waited on goes on
	}
	switch {
	case !a.opened:
		h1.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": a.err.Error()})
	case a.err != nil && len(a.ids) == 0:
		WriteErr(w, a.err)
	case a.err != nil:
		// Partial adoption: report what was recovered and what was not.
		h1.WriteJSON(w, http.StatusOK, map[string]any{"adopted": a.ids, "error": a.err.Error()})
	default:
		h1.WriteJSON(w, http.StatusOK, map[string]any{"adopted": a.ids})
	}
}

// adopt opens the store in dir and hands it to the manager, recording the
// outcome in a. A store that fails to open is forgotten, so a later request
// may try again.
func (s *server) adopt(a *adoption, dir string) {
	defer close(a.done)
	st, err := jobstore.Open("", dir)
	if err != nil {
		a.err = err
		s.mu.Lock()
		delete(s.adoptions, dir)
		s.mu.Unlock()
		return
	}
	a.opened = true
	a.ids, a.err = s.cfg.Mgr.RecoverFrom(st)
	if a.err == nil || len(a.ids) > 0 {
		s.cfg.Events.Event("failover_adopt", "dir", dir, "kind", st.Kind(), "jobs", len(a.ids))
	}
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.cfg.Mgr.Get(r.PathValue("id"))
	if err != nil {
		WriteErr(w, err)
		return
	}
	h1.WriteJSON(w, http.StatusOK, st)
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.cfg.Mgr.Get(id)
	if err != nil {
		WriteErr(w, err)
		return
	}
	if !st.State.Terminal() {
		h1.WriteJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("job %s is %s", id, st.State),
		})
		return
	}
	res, err := s.cfg.Mgr.Result(id)
	if err != nil {
		if errors.Is(err, jobs.ErrNotFound) {
			// Evicted by retention churn between the two lookups.
			WriteErr(w, err)
			return
		}
		// Terminal without a result (failed, or canceled before starting):
		// surface the run error with the status.
		h1.WriteJSON(w, http.StatusOK, map[string]any{"state": st.State, "error": err.Error()})
		return
	}
	h1.WriteJSON(w, http.StatusOK, map[string]any{"state": st.State, "result": res})
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	if err := s.cfg.Mgr.Cancel(r.PathValue("id")); err != nil {
		WriteErr(w, err)
		return
	}
	h1.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "canceling"})
}

// trace streams the job's progress as NDJSON: one jobs.Event per line,
// flushed whenever the subscription has nothing more queued — a burst of
// events shares one chunk, a lone event goes out at once — ending when the
// job reaches a terminal state or the client disconnects. Lines are built
// by appendTraceLine in a reused buffer; the events it declines go through
// json.Encoder, whose error (a non-finite float) ends the stream.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.cfg.Mgr.Subscribe(r.PathValue("id"))
	if err != nil {
		WriteErr(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var line []byte
	for {
		var e jobs.Event
		var ok bool
		select {
		case <-r.Context().Done():
			return
		case e, ok = <-ch:
		}
		// Write every event already queued, then flush once. A closed
		// channel ends the stream unflushed: the server writes what is
		// buffered together with the end of the body, so a trace that
		// ends before its first flush leaves as one known-length answer.
		for more := true; more; {
			if !ok {
				return
			}
			var fast bool
			if line, fast = appendTraceLine(line[:0], &e); fast {
				_, err = w.Write(line)
			} else {
				err = enc.Encode(e)
			}
			if err != nil {
				return
			}
			select {
			case e, ok = <-ch:
			default:
				more = false
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
