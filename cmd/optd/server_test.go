package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/testfunc"
)

func startTestServer(t *testing.T, cfg jobs.Config) *httptest.Server {
	t.Helper()
	if cfg.Objectives == nil {
		cfg.Objectives = map[string]func([]float64) float64{}
	}
	// A deliberately slow objective so cancellation can land mid-run.
	cfg.Objectives["slowrosen"] = func(x []float64) float64 {
		time.Sleep(500 * time.Microsecond)
		return testfunc.Rosenbrock(x)
	}
	mgr, err := jobs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, out any) int {
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

// TestOptdE2E is the end-to-end exercise CI runs: start the server, submit a
// small PC job and poll it to completion, fetch its result, stream a trace,
// and cancel a second long job mid-run.
func TestOptdE2E(t *testing.T) {
	ts := startTestServer(t, jobs.Config{MaxConcurrent: 4})

	// Health: readiness payload with pool width and per-state job counts.
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz: code %d body %v", code, health)
	}
	if w, ok := health["workers"].(float64); !ok || w < 1 {
		t.Fatalf("healthz workers = %v, want >= 1", health["workers"])
	}
	if _, ok := health["jobs"].(map[string]any); !ok {
		t.Fatalf("healthz missing job counts: %v", health)
	}

	// Submit a small PC job.
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{
		Objective: "rosenbrock", Dim: 3, Algorithm: "pc",
		Sigma0: 50, Seed: 11, Tol: -1, Budget: 1e12, MaxIterations: 40,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", body)
	}

	// Result before completion should 409 ... unless the job already won the
	// race; either answer must be well-formed.
	var early map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &early); code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("early result: unexpected code %d body %v", code, early)
	}

	// Poll status to completion.
	deadline := time.Now().Add(30 * time.Second)
	var st jobs.Status
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status: code %d", code)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job finished %s, want done: %+v", st.State, st)
	}

	// Fetch the result.
	var res struct {
		State  jobs.State      `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	if res.State != jobs.StateDone || !strings.Contains(string(res.Result), "\"Iterations\":40") {
		t.Fatalf("unexpected result payload: state %s body %s", res.State, res.Result)
	}

	// Trace of a finished job: a short, valid NDJSON stream ending in a
	// terminal state event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var last jobs.Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if last.Type != "state" || !last.State.Terminal() {
		t.Fatalf("trace did not end in a terminal state event: %+v", last)
	}

	// Second job: long-running, canceled mid-run via DELETE.
	code, body = postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{
		Objective: "slowrosen", Dim: 3, Algorithm: "pc",
		Sigma0: 50, Seed: 12, Tol: -1, Budget: 1e12,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit slow job: code %d body %v", code, body)
	}
	slowID, _ := body["id"].(string)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+slowID, &st); code != http.StatusOK {
			t.Fatalf("status: code %d", code)
		}
		if st.State == jobs.StateRunning && st.Iterations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job never got going: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slowID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: code %d", dresp.StatusCode)
	}
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+slowID, &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job did not stop: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != jobs.StateCanceled {
		t.Fatalf("canceled job finished %s: %+v", st.State, st)
	}

	// List shows both jobs.
	var list []jobs.Status
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: code %d, %d jobs", code, len(list))
	}
}

// TestOptdTraceStreamsLive verifies the NDJSON stream delivers events while
// the job is still running, not only after it finishes.
func TestOptdTraceStreamsLive(t *testing.T) {
	ts := startTestServer(t, jobs.Config{MaxConcurrent: 1, TraceBuffer: 4096})
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{
		Objective: "slowrosen", Dim: 3, Algorithm: "pc",
		Sigma0: 50, Seed: 5, Tol: -1, Budget: 1e12,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	traces := 0
	for sc.Scan() && traces < 3 {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON: %v", err)
		}
		if e.Type == "trace" {
			traces++
		}
	}
	if traces < 3 {
		t.Fatalf("got %d live trace events, want >= 3", traces)
	}
	// Cancel to end the stream and free the slot quickly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if cresp, err := http.DefaultClient.Do(req); err == nil {
		cresp.Body.Close()
	}
}

// TestOptdStrategies verifies the strategy listing: every NM-family policy
// plus the pso and hybrid strategies, with resumability flags.
func TestOptdStrategies(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	var out struct {
		Strategies []struct {
			Name      string   `json:"name"`
			Aliases   []string `json:"aliases"`
			Resumable bool     `json:"resumable"`
			Algorithm string   `json:"algorithm"`
		} `json:"strategies"`
	}
	if code := getJSON(t, ts.URL+"/strategies", &out); code != http.StatusOK {
		t.Fatalf("strategies: code %d", code)
	}
	got := map[string]bool{} // name -> resumable
	for _, s := range out.Strategies {
		got[s.Name] = s.Resumable
	}
	for _, name := range []string{"det", "mn", "pc", "pc+mn", "anderson"} {
		if resumable, ok := got[name]; !ok || !resumable {
			t.Errorf("strategy %q: present=%v resumable=%v, want present and resumable", name, ok, resumable)
		}
	}
	for _, name := range []string{"pso", "hybrid"} {
		if resumable, ok := got[name]; !ok || resumable {
			t.Errorf("strategy %q: present=%v resumable=%v, want present and not resumable", name, ok, resumable)
		}
	}
}

// TestOptdMethodNotAllowed verifies wrong-method requests get 405 with an
// Allow header and a JSON error body.
func TestOptdMethodNotAllowed(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	cases := []struct {
		method, path, wantAllow string
	}{
		{http.MethodPatch, "/v1/jobs", "GET, POST"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodDelete, "/strategies", "GET"},
		{http.MethodPost, "/v1/jobs/j000001/result", "GET"},
		{http.MethodGet, "/v1/jobs/j000001/cancel", "POST"},
		{http.MethodPut, "/v1/jobs/j000001", "GET, DELETE"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: code %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != c.wantAllow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, allow, c.wantAllow)
		}
		if err != nil || body["error"] == "" {
			t.Errorf("%s %s: want a JSON error body, got %v (err %v)", c.method, c.path, body, err)
		}
	}
}

// TestOptdPSOAndHybridE2E drives the new strategies through the full HTTP
// surface: submit, stream the trace, and fetch the result.
func TestOptdPSOAndHybridE2E(t *testing.T) {
	ts := startTestServer(t, jobs.Config{MaxConcurrent: 2})
	// The slow objective keeps the runs alive long enough for the trace
	// subscription to observe live progress.
	for _, spec := range []jobs.Spec{
		{Objective: "slowrosen", Dim: 2, Algorithm: "pso",
			Sigma0: 2, Seed: 7, Particles: 8, SwarmIterations: 10},
		{Objective: "slowrosen", Dim: 2, Algorithm: "hybrid",
			Sigma0: 2, Seed: 7, Particles: 8, SwarmIterations: 10,
			Tol: -1, MaxIterations: 30, Budget: 1e12},
	} {
		code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: code %d body %v", spec.Algorithm, code, body)
		}
		id, _ := body["id"].(string)

		// The trace stream must deliver per-iteration progress and end in a
		// terminal state event.
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		traces := 0
		var last jobs.Event
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("%s: bad NDJSON line %q: %v", spec.Algorithm, sc.Text(), err)
			}
			if last.Type == "trace" {
				traces++
			}
		}
		resp.Body.Close()
		if last.Type != "state" || last.State != jobs.StateDone {
			t.Fatalf("%s: stream ended with %+v, want done", spec.Algorithm, last)
		}
		if traces == 0 {
			t.Fatalf("%s: no trace events in stream", spec.Algorithm)
		}

		var res struct {
			State  jobs.State `json:"state"`
			Result struct {
				BestX      []float64 `json:"BestX"`
				Iterations int       `json:"Iterations"`
			} `json:"result"`
		}
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
			t.Fatalf("%s result: code %d", spec.Algorithm, code)
		}
		if res.State != jobs.StateDone || len(res.Result.BestX) != 2 || res.Result.Iterations == 0 {
			t.Fatalf("%s: unexpected result %+v", spec.Algorithm, res)
		}
	}
}

func TestOptdErrors(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	// Unknown job.
	var out map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs/j999999", &out); code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d", code)
	}
	// Invalid spec.
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{Objective: "nope", Dim: 3}); code != http.StatusBadRequest {
		t.Fatalf("bad spec: code %d", code)
	}
	// Unknown field rejected.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"objective":"rosenbrock","dim":3,"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: code %d", resp.StatusCode)
	}
}
