package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
)

// serveManager wraps an existing manager (e.g. one that just recovered
// checkpoints) in a test HTTP server.
func serveManager(t *testing.T, mgr *jobs.Manager) string {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts.URL
}

// This file exercises the optd failure surface the happy-path tests skip:
// syntactically malformed specs, unknown algorithms, cancels racing
// completion, clients that vanish mid trace stream, and recovery when the
// checkpoint directory holds truncated or corrupt files.

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st jobs.Status
	for {
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: code %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOptdMalformedSpecJSON verifies a syntactically broken body is a 400
// with a JSON error, not a 500 or a hang.
func TestOptdMalformedSpecJSON(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	for _, body := range []string{
		`{"objective":`,          // truncated mid-value
		`{"objective" "x"}`,      // missing colon
		`[1,2,3]`,                // wrong JSON shape
		"\x00\x01binary garbage", // not JSON at all
		``,                       // empty body
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, resp.StatusCode)
		}
		msg, _ := out["error"].(string)
		if decErr != nil || msg == "" {
			t.Errorf("body %q: want a JSON error payload, got %v (err %v)", body, out, decErr)
		}
	}
}

// TestOptdUnknownAlgorithm verifies an unregistered strategy name is rejected
// at submission with a message naming the registered strategies.
func TestOptdUnknownAlgorithm(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{
		Objective: "rosenbrock", Dim: 3, Algorithm: "gradient-descent", Sigma0: 1,
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: code %d body %v", code, body)
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "gradient-descent") || !strings.Contains(msg, "registered") {
		t.Errorf("error should name the bad algorithm and the registered ones, got %q", msg)
	}
}

// TestOptdCancelAfterDone verifies canceling a finished job is a harmless
// no-op: the cancel is accepted, the state stays done, and the result stays
// fetchable.
func TestOptdCancelAfterDone(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{
		Objective: "rosenbrock", Dim: 2, Algorithm: "pc",
		Sigma0: 1, Seed: 3, Tol: -1, Budget: 1e12, MaxIterations: 5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["id"].(string)
	if st := waitTerminal(t, ts.URL, id); st.State != jobs.StateDone {
		t.Fatalf("job finished %s, want done", st.State)
	}

	code, _ = postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", struct{}{})
	if code != http.StatusAccepted {
		t.Fatalf("cancel after done: code %d, want 202", code)
	}
	var st jobs.Status
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK || st.State != jobs.StateDone {
		t.Fatalf("state after late cancel: code %d state %s, want done", code, st.State)
	}
	var res map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK || res["result"] == nil {
		t.Fatalf("result after late cancel: code %d body %v", code, res)
	}
}

// TestOptdTraceDisconnectMidRun verifies a trace client vanishing mid-run
// neither kills nor stalls the job: the run finishes, and a fresh subscriber
// still gets a well-formed stream.
func TestOptdTraceDisconnectMidRun(t *testing.T) {
	ts := startTestServer(t, jobs.Config{MaxConcurrent: 1, TraceBuffer: 4096})
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobs.Spec{
		Objective: "slowrosen", Dim: 3, Algorithm: "pc",
		Sigma0: 50, Seed: 9, Tol: -1, Budget: 1e12, MaxIterations: 400,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["id"].(string)

	// First subscriber: read a couple of live events, then slam the
	// connection shut mid-stream.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < 2 {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON: %v", err)
		}
		if e.Type == "trace" {
			seen++
		}
	}
	resp.Body.Close() // client disconnect, job still running
	if seen < 2 {
		t.Fatalf("never observed live trace events before disconnecting")
	}

	// The job must still run to completion...
	if st := waitTerminal(t, ts.URL, id); st.State != jobs.StateDone {
		t.Fatalf("job finished %s after subscriber disconnect, want done", st.State)
	}
	// ...and a late subscriber still gets a terminal-state stream.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	var last jobs.Event
	for sc2.Scan() {
		if err := json.Unmarshal(sc2.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON after disconnect: %v", err)
		}
	}
	if last.Type != "state" || !last.State.Terminal() {
		t.Fatalf("late stream ended with %+v, want terminal state", last)
	}
}

// TestOptdRecoverCorruptCheckpoint kills a manager mid-run, then vandalizes
// the checkpoint directory with a truncated copy and a garbage file. The
// restarted manager must recover the intact job, report (not swallow) the
// corrupt files, and leave them on disk for the operator.
func TestOptdRecoverCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()

	// First life: run a checkpointing job and kill the manager mid-run.
	mgr1, err := jobs.New(jobs.Config{MaxConcurrent: 1, CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr1.Submit(jobs.Spec{
		Objective: "rosenbrock", Dim: 3, Algorithm: "pc",
		Sigma0: 50, Seed: 21, Tol: -1, Budget: 1e12, MaxIterations: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, id+".ckpt.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint file never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	mgr1.Close() // the "kill": running jobs keep their checkpoints

	// Vandalism: a truncated copy under another job ID and a garbage file.
	valid, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "j000777.ckpt.json")
	if err := os.WriteFile(truncated, valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "j000778.ckpt.json")
	if err := os.WriteFile(garbage, []byte("\x00not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: recover. The intact job must come back, the corrupt
	// files must be reported and preserved.
	mgr2, err := jobs.New(jobs.Config{MaxConcurrent: 1, CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids, rerr := mgr2.Recover()
	if rerr == nil {
		t.Error("Recover swallowed the corrupt checkpoint files")
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("recovered %v, want [%s]", ids, id)
	}
	for _, f := range []string{truncated, garbage} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("corrupt checkpoint %s was deleted during recovery: %v", f, err)
		}
	}

	// The recovered job is live over HTTP and can be canceled cleanly.
	ts := serveManager(t, mgr2)
	var st jobs.Status
	if code := getJSON(t, ts+"/v1/jobs/"+id, &st); code != http.StatusOK || !st.Resumed {
		t.Fatalf("recovered job status: code %d %+v, want resumed", code, st)
	}
	if code, _ := postJSON(t, ts+"/v1/jobs/"+id+"/cancel", struct{}{}); code != http.StatusAccepted {
		t.Fatalf("cancel recovered job: code %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != jobs.StateCanceled {
		t.Fatalf("recovered job finished %s, want canceled", st.State)
	}
}
