package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/serve"
	"repro/internal/testfunc"
)

// specJSON is a fast deterministic job: rosenbrock/pc, done in a few ms.
func specJSON(tenant string, seed int64) string {
	return fmt.Sprintf(`{"objective":"rosenbrock","dim":3,"algorithm":"pc","sigma0":50,"seed":%d,"tol":-1,"max_iterations":20,"tenant":%q}`, seed, tenant)
}

func startServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr, err := jobs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st map[string]any
		if code := get(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: code %d", id, code)
		}
		switch st["state"] {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestTenantRoutes: the tenant-scoped submit forces the path's namespace,
// the tenant list is scoped, /v1/tenants reports quota accounting, and a
// spec/path tenant conflict is rejected.
func TestTenantRoutes(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{MaxConcurrent: 2})

	// Tenant-scoped submit with no tenant in the spec: path wins.
	code, body := post(t, ts.URL+"/v1/tenants/acme/jobs", specJSON("", 7))
	if code != http.StatusAccepted {
		t.Fatalf("tenant submit: code %d body %v", code, body)
	}
	acmeID := body["id"].(string)
	if st := waitDone(t, ts, acmeID); st["tenant"] != "acme" || st["state"] != "done" {
		t.Fatalf("tenant job status: %v", st)
	}

	// A different tenant via the flat endpoint, tenant named in the spec.
	code, body = post(t, ts.URL+"/v1/jobs", specJSON("globex", 8))
	if code != http.StatusAccepted {
		t.Fatalf("flat submit: code %d body %v", code, body)
	}
	waitDone(t, ts, body["id"].(string))

	// Conflicting spec/path tenants are a 400, not silent reassignment.
	code, body = post(t, ts.URL+"/v1/tenants/acme/jobs", specJSON("globex", 9))
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "conflicts") {
		t.Fatalf("tenant conflict: code %d body %v", code, body)
	}

	// A spec padded past the 1 MiB body limit is a 413, whatever it says.
	code, body = post(t, ts.URL+"/v1/tenants/acme/jobs", padBody(specJSON("", 10)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded spec: code %d body %v", code, body)
	}

	// The tenant-scoped list shows only acme's job.
	var scoped []map[string]any
	if code := get(t, ts.URL+"/v1/tenants/acme/jobs", &scoped); code != http.StatusOK {
		t.Fatalf("tenant list: code %d", code)
	}
	if len(scoped) != 1 || scoped[0]["id"] != acmeID {
		t.Fatalf("tenant list = %v, want just %s", scoped, acmeID)
	}

	// /v1/tenants reports both namespaces with balanced accounting.
	var tl struct {
		Tenants []jobs.TenantStats `json:"tenants"`
	}
	if code := get(t, ts.URL+"/v1/tenants", &tl); code != http.StatusOK {
		t.Fatalf("tenants: code %d", code)
	}
	names := make([]string, 0, len(tl.Tenants))
	for _, s := range tl.Tenants {
		names = append(names, s.Tenant)
		if s.Queued != 0 || s.Running != 0 {
			t.Fatalf("tenant %s accounting not drained: %+v", s.Tenant, s)
		}
	}
	if fmt.Sprint(names) != "[acme globex]" {
		t.Fatalf("tenant names = %v", names)
	}
}

// TestSubmitWithIDAndQuota: caller-chosen IDs via ?id= (the router's
// placement contract), duplicate rejection, and 429 on quota exhaustion.
func TestSubmitWithIDAndQuota(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{
		MaxConcurrent: 1,
		DefaultQuota:  jobs.Quota{MaxQueued: 1},
		Objectives: map[string]func([]float64) float64{
			"slowsphere": func(x []float64) float64 {
				time.Sleep(500 * time.Microsecond)
				var s float64
				for _, v := range x {
					s += v * v
				}
				return s
			},
		},
	})

	blocker := `{"objective":"slowsphere","dim":3,"algorithm":"pc","sigma0":1,"seed":1,"tol":-1}`
	code, body := post(t, ts.URL+"/v1/jobs?id=shard0-j1", blocker)
	if code != http.StatusAccepted || body["id"] != "shard0-j1" {
		t.Fatalf("submit with id: code %d body %v", code, body)
	}
	// Reusing the ID is a 400 (invalid submission), not a new job.
	if code, body = post(t, ts.URL+"/v1/jobs?id=shard0-j1", blocker); code != http.StatusBadRequest {
		t.Fatalf("duplicate id: code %d body %v", code, body)
	}

	// One queued job fits the quota; the next is a 429. The quota counts
	// queued jobs, so j1 must have left the queue before j2 is posted.
	waitFor(t, "shard0-j1 running", func() bool {
		var st map[string]any
		get(t, ts.URL+"/v1/jobs/shard0-j1", &st)
		return st["state"] == "running"
	})
	if code, body = post(t, ts.URL+"/v1/jobs?id=shard0-j2", blocker); code != http.StatusAccepted {
		t.Fatalf("queued submit: code %d body %v", code, body)
	}
	code, body = post(t, ts.URL+"/v1/jobs?id=shard0-j3", blocker)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: code %d body %v", code, body)
	}

	for _, id := range []string{"shard0-j1", "shard0-j2"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
		}
	}
}

// openStore opens the store in dir, kind picking a new dir's layout; the
// manager it is handed to closes it.
func openStore(t *testing.T, kind, dir string) jobstore.Store {
	t.Helper()
	st, err := jobstore.Open(kind, dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFailoverEndpoint: kill a manager with durable queued work, then adopt
// its store via POST /v1/failover on a second server, whose own store has
// the other layout, and watch the job finish there. The body names only the
// dir: each row's dead store has one layout, and the adopter finds it. A
// dead dir holding both layouts is refused and left as it was.
func TestFailoverEndpoint(t *testing.T) {
	for _, tt := range []struct{ dead, live string }{{"file", "wal"}, {"wal", "file"}} {
		t.Run(tt.dead, func(t *testing.T) {
			dir := t.TempDir()
			deadDir := filepath.Join(dir, "dead")

			// First life: submit one durable job and close the manager
			// while the job is held at its first objective call, so it
			// cannot finish (and drop its record) first — a job may start
			// before Submit returns. The gate opens once Close has canceled
			// the job; the job then stops canceled, and shutdown keeps its
			// record.
			gate := make(chan struct{})
			m1, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: openStore(t, tt.dead, deadDir),
				Objectives: map[string]func([]float64) float64{
					"gated": func(x []float64) float64 { <-gate; return testfunc.Rosenbrock(x) },
				}})
			if err != nil {
				t.Fatal(err)
			}
			spec := jobs.Spec{
				Objective: "gated", Dim: 3, Algorithm: "pc", Sigma0: 50,
				Seed: 41, Tol: -1, MaxIterations: 20, Tenant: "acme",
			}
			blocker, err := m1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				m1.Close()
			}()
			// A repeated ID is refused with ErrClosed once Close has begun
			// (and canceled every job), and as already taken before.
			for {
				if _, err := m1.SubmitWithID(blocker, spec); errors.Is(err, jobs.ErrClosed) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			close(gate)
			<-closed

			// Survivor: a fresh server with a store of the other layout; its
			// "gated" objective is plain Rosenbrock.
			ts, _ := startServer(t, jobs.Config{MaxConcurrent: 2, Store: openStore(t, tt.live, filepath.Join(dir, "live")),
				Objectives: map[string]func([]float64) float64{"gated": testfunc.Rosenbrock}})
			code, body := post(t, ts.URL+"/v1/failover", fmt.Sprintf(`{"dir":%q}`, deadDir))
			if code != http.StatusOK {
				t.Fatalf("failover: code %d body %v", code, body)
			}
			adopted, _ := body["adopted"].([]any)
			if len(adopted) != 1 || adopted[0] != blocker {
				t.Fatalf("adopted = %v, want [%s]", body["adopted"], blocker)
			}
			if st := waitDone(t, ts, blocker); st["state"] != "done" || st["tenant"] != "acme" || st["resumed"] != true {
				t.Fatalf("adopted job status: %v", st)
			}

			// Asking again, however the dir is spelled, answers with the same
			// adoption instead of opening the store a second time.
			code, body = post(t, ts.URL+"/v1/failover", fmt.Sprintf(`{"dir":%q}`, deadDir+string(filepath.Separator)))
			if again, _ := body["adopted"].([]any); code != http.StatusOK || len(again) != 1 || again[0] != blocker {
				t.Fatalf("repeated failover: code %d body %v, want the first adoption [%s]", code, body, blocker)
			}
		})
	}

	dir := t.TempDir()
	ts, _ := startServer(t, jobs.Config{MaxConcurrent: 1})
	t.Run("both layouts", func(t *testing.T) {
		both := filepath.Join(dir, "both")
		files := openStore(t, "file", both)
		wal, err := jobstore.OpenWAL(both)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range []jobstore.Store{files, wal} {
			if err := st.Put(fmt.Sprintf("j%06d", i+1), []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		before, _ := filepath.Glob(filepath.Join(both, "*"))
		code, body := post(t, ts.URL+"/v1/failover", fmt.Sprintf(`{"dir":%q}`, both))
		if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "both layouts") {
			t.Fatalf("code %d body %v, want 400 naming both layouts", code, body)
		}
		if after, _ := filepath.Glob(filepath.Join(both, "*")); !slices.Equal(after, before) {
			t.Fatalf("files after a refused adoption = %v, want %v", after, before)
		}
	})

	// Every other request shape: an empty store adopts nothing, a body padded
	// past the 1 MiB limit is a 413, and the retired store field or a missing
	// dir is a 400.
	emptyDir := fmt.Sprintf(`{"dir":%q}`, filepath.Join(dir, "empty"))
	tests := []struct {
		name string
		body string
		code int
	}{
		{"empty store", emptyDir, http.StatusOK},
		{"padded past the limit", padBody(emptyDir), http.StatusRequestEntityTooLarge},
		{"retired store field", fmt.Sprintf(`{"dir":%q,"store":"wal"}`, filepath.Join(dir, "empty")), http.StatusBadRequest},
		{"missing dir", `{}`, http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if code, body := post(t, ts.URL+"/v1/failover", tt.body); code != tt.code {
				t.Fatalf("code %d body %v, want %d", code, body, tt.code)
			}
		})
	}
}

// padBody pads a JSON object's body past the 1 MiB request limit with
// whitespace after its opening brace, so it stays a valid document the
// decoder must read through.
func padBody(obj string) string {
	return "{" + strings.Repeat(" ", 1<<20) + obj[1:]
}

// TestMethodNotAllowed: the new paths answer wrong methods with 405 + Allow.
func TestMethodNotAllowed(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{MaxConcurrent: 1})
	for path, allow := range map[string]string{
		"/v1/tenants":           "GET",
		"/v1/tenants/acme/jobs": "GET, POST",
		"/v1/failover":          "POST",
	} {
		var method string
		if strings.Contains(allow, "POST") && !strings.Contains(allow, "DELETE") {
			method = http.MethodDelete
		} else {
			method = http.MethodPut
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != allow {
			t.Fatalf("%s %s: code %d allow %q, want 405 %q", method, path, resp.StatusCode, resp.Header.Get("Allow"), allow)
		}
	}
}

// TestHealthzAndStrategies pins the readiness surface: store kind, tenant
// count and strategy listing all answer through the shared handler.
func TestHealthzAndStrategies(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{
		MaxConcurrent: 1,
		Store:         openStore(t, "wal", t.TempDir()),
	})
	if code, body := post(t, ts.URL+"/v1/tenants/acme/jobs", specJSON("", 7)); code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	var health map[string]any
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["ok"] != true {
		t.Fatalf("healthz not ok: %v", health)
	}
	if health["store"] != "wal" {
		t.Fatalf("healthz store = %v, want wal", health["store"])
	}
	if n, ok := health["tenants"].(float64); !ok || n < 1 {
		t.Fatalf("healthz tenants = %v, want >= 1", health["tenants"])
	}
	var strategies map[string]any
	if code := get(t, ts.URL+"/strategies", &strategies); code != http.StatusOK {
		t.Fatalf("strategies: %d", code)
	}
	if _, ok := strategies["strategies"]; !ok {
		t.Fatalf("strategies payload missing list: %v", strategies)
	}
}

// streamRecorder is a ResponseRecorder that announces its WriteHeader call
// and its first Flush.
type streamRecorder struct {
	*httptest.ResponseRecorder
	header  chan struct{}
	flushed chan struct{}
	once    sync.Once
}

func (s *streamRecorder) WriteHeader(code int) {
	s.ResponseRecorder.WriteHeader(code)
	close(s.header)
}

func (s *streamRecorder) Flush() {
	s.ResponseRecorder.Flush()
	s.once.Do(func() { close(s.flushed) })
}

// TestResultAndTrace is the read side of a job's life over HTTP: unknown
// IDs are 404 on every job-scoped route, /result refuses (409) until the job
// is terminal, /trace streams NDJSON events, flushing them while the job
// still runs, and ends by itself when the job does, and /result then serves
// exactly the manager's result.
func TestResultAndTrace(t *testing.T) {
	// The gated objective takes one evaluation per step until the gate
	// opens, then runs free.
	step, gate := make(chan struct{}), make(chan struct{})
	ts, mgr := startServer(t, jobs.Config{
		MaxConcurrent: 1,
		Objectives: map[string]func([]float64) float64{
			"gate": func(x []float64) float64 {
				select {
				case <-step:
				case <-gate:
				}
				return x[0]*x[0] + x[1]*x[1]
			},
		},
	})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release) // LIFO: before the manager's Close waits on the job

	var body map[string]any
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/trace"} {
		if code := get(t, ts.URL+path, &body); code != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, code)
		}
	}
	if code, _ := post(t, ts.URL+"/v1/jobs/nope/cancel", ""); code != http.StatusNotFound {
		t.Errorf("cancel of an unknown job: code %d, want 404", code)
	}

	gated := `{"objective":"gate","dim":2,"algorithm":"pc","sigma0":1,"seed":5,"tol":-1,"max_iterations":6}`
	code, sub := post(t, ts.URL+"/v1/jobs", gated)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, sub)
	}
	id := sub["id"].(string)
	// A second job queues behind it and is canceled before it ever starts:
	// terminal, with no result to serve.
	code, sub = post(t, ts.URL+"/v1/jobs", gated)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, sub)
	}
	queued := sub["id"].(string)
	if code, _ := post(t, ts.URL+"/v1/jobs/"+queued+"/cancel", ""); code != http.StatusAccepted {
		t.Fatalf("cancel: code %d", code)
	}
	waitDone(t, ts, queued)
	if code := get(t, ts.URL+"/v1/jobs/"+queued+"/result", &body); code != http.StatusOK ||
		body["state"] != "canceled" || body["error"] == nil || body["result"] != nil {
		t.Fatalf("result of a never-started job: code %d body %v", code, body)
	}

	if code := get(t, ts.URL+"/v1/jobs/"+id+"/result", &body); code != http.StatusConflict {
		t.Fatalf("result of a live job: code %d body %v, want 409", code, body)
	}

	// The handler writes its header right after subscribing and flushes
	// only with the first event, so over a real connection a client cannot
	// tell when it is safe to let the job go. Serve this one request
	// in-process, where the header write is observable.
	rec := &streamRecorder{ResponseRecorder: httptest.NewRecorder(), header: make(chan struct{}), flushed: make(chan struct{})}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil))
	}()
	<-rec.header
	if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("trace: code %d content-type %q", rec.Code, ct)
	}

	// Step the job until a subscriber of its own sees the first iteration's
	// trace event, then hold it there: the stream must flush that event while
	// the job is still held, not when it ends.
	direct, unsubscribe, err := mgr.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsubscribe()
	timeout := time.After(10 * time.Second)
	for traced := false; !traced; {
		select {
		case e := <-direct: // an event already out wins over another step
			traced = e.Type == "trace"
			continue
		default:
		}
		select {
		case e := <-direct:
			traced = e.Type == "trace"
		case step <- struct{}{}:
		case <-timeout:
			t.Fatal("the job never finished its first iteration")
		}
	}
	select {
	case <-rec.flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("the first iteration's trace event was not flushed while the job was held")
	}
	if s, err := mgr.Get(id); err != nil || s.State != jobs.StateRunning {
		t.Fatalf("job state %q (%v) when its first trace event was flushed, want running", s.State, err)
	}
	release()
	<-ended // the stream ends by itself once the job is terminal
	var events []jobs.Event
	dec := json.NewDecoder(rec.Body)
	for {
		var e jobs.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("trace line %d: %v", len(events), err)
		}
		if e.JobID != id {
			t.Fatalf("trace line %d is for job %q", len(events), e.JobID)
		}
		events = append(events, e)
	}
	traces := 0
	for _, e := range events {
		if e.Type == "trace" && e.Trace != nil {
			traces++
		}
	}
	if last := events[len(events)-1]; traces != 6 || last.Type != "state" || last.State != jobs.StateDone {
		t.Fatalf("stream had %d trace events and ended on %+v, want 6 and a done state", traces, last)
	}

	var got struct {
		State  jobs.State      `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if code := get(t, ts.URL+"/v1/jobs/"+id+"/result", &got); code != http.StatusOK || got.State != jobs.StateDone {
		t.Fatalf("result: code %d state %q", code, got.State)
	}
	res, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Result, want) {
		t.Fatalf("served result differs from the manager's:\n got %s\nwant %s", got.Result, want)
	}
}

// burstWriter is a client that is slow to take the first chunk: its first
// Write blocks until open is closed, and Flush records what has reached the
// client so far.
type burstWriter struct {
	header http.Header
	ready  chan struct{} // closed by WriteHeader
	open   chan struct{}

	mu        sync.Mutex
	buf       bytes.Buffer
	delivered int // bytes of buf flushed to the client
	flushes   int
}

func (w *burstWriter) Header() http.Header { return w.header }
func (w *burstWriter) WriteHeader(int)     { close(w.ready) }

func (w *burstWriter) Write(p []byte) (int, error) {
	<-w.open
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *burstWriter) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.delivered = w.buf.Len()
	w.flushes++
}

// deliveredLines reports the complete lines flushed so far and the number of
// flushes that carried them.
func (w *burstWriter) deliveredLines() (lines, flushes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Count(w.buf.Bytes()[:w.delivered], []byte("\n")), w.flushes
}

// TestTraceBurstSharesFlush pins both halves of the trace flushing rule. A
// job emits N events while the client is slow to take the first one, then
// blocks inside its objective: once the client catches up, all N lines must
// reach it — the last event of a burst is not left in the buffer waiting for
// a successor that a blocked job will not send — and they must arrive in one
// flush, not N.
func TestTraceBurstSharesFlush(t *testing.T) {
	const parkAt = 30 // objective call the job blocks in; iterations < calls < the 64-event buffer
	var (
		calls  atomic.Int64
		start  = make(chan struct{})
		parked = make(chan struct{})
		hold   = make(chan struct{})
	)
	ts, mgr := startServer(t, jobs.Config{
		MaxConcurrent: 1,
		Objectives: map[string]func([]float64) float64{
			"bursty": func(x []float64) float64 {
				switch calls.Add(1) {
				case 1:
					<-start
				case parkAt:
					close(parked)
					<-hold
				}
				return x[0]*x[0] + x[1]*x[1]
			},
		},
	})
	w := &burstWriter{header: make(http.Header), ready: make(chan struct{}), open: make(chan struct{})}
	// Every close happens on the test goroutine, cleanup included.
	closed := make(map[chan struct{}]bool)
	release := func(gates ...chan struct{}) {
		for _, g := range gates {
			if !closed[g] {
				closed[g] = true
				close(g)
			}
		}
	}
	// LIFO: before the manager's Close waits on the job.
	t.Cleanup(func() { release(start, w.open, hold) })

	code, sub := post(t, ts.URL+"/v1/jobs",
		`{"objective":"bursty","dim":2,"algorithm":"pc","sigma0":1,"seed":5,"tol":-1,"max_iterations":1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, sub)
	}
	id := sub["id"].(string)

	ended := make(chan struct{})
	go func() {
		defer close(ended)
		ts.Config.Handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil))
	}()
	<-w.ready // the handler has subscribed
	// A second subscription, made before the first event, counts what the
	// handler's own was sent.
	counter, cancel, err := mgr.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	release(start)
	<-parked
	n := len(counter)
	if n < 2 {
		t.Fatalf("job emitted %d events before blocking, want a burst", n)
	}
	release(w.open)

	deadline := time.Now().Add(10 * time.Second)
	for {
		lines, flushes := w.deliveredLines()
		if lines == n {
			if flushes != 1 {
				t.Errorf("%d queued events took %d flushes, want 1", n, flushes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client holds %d of %d events while the job is blocked (%d flushes)", lines, n, flushes)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-ended:
		t.Fatal("trace stream ended while the job was still running")
	default:
	}
	if st, err := mgr.Get(id); err != nil || st.State != jobs.StateRunning {
		t.Fatalf("job state %v (err %v), want running", st.State, err)
	}

	release(hold)
	<-ended
}
