package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestOptdFleetProcessE2E is the distributed-mode end-to-end exercise CI
// runs with real processes: build optd and optworker, launch the server
// with a fleet listener and two worker agents, submit a fleet job, SIGKILL
// one agent mid-run, and assert the job completes with a result
// byte-identical to the in-process run of the same spec.
func TestOptdFleetProcessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildFleetBinaries(t)

	// Launch optd with both listeners on ephemeral ports and parse the
	// actual addresses from its stdout.
	optd := exec.Command(filepath.Join(bin, "optd"),
		"-addr", "127.0.0.1:0", "-fleet-addr", "127.0.0.1:0", "-max-concurrent", "2")
	optdOut, err := optd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	optd.Stderr = optd.Stdout
	if err := optd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		optd.Process.Kill()
		optd.Wait()
	})
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(optdOut)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(prefix string) string {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("optd exited before printing %q", prefix)
				}
				if strings.HasPrefix(line, prefix) {
					return strings.TrimSpace(strings.TrimPrefix(line, prefix))
				}
			case <-deadline:
				t.Fatalf("optd never printed %q", prefix)
			}
		}
	}
	fleetAddr := waitLine("fleet listening on ")
	fleetAddr, _, _ = strings.Cut(fleetAddr, " (")
	httpAddr := waitLine("optd listening on ")
	base := "http://" + httpAddr

	// Two worker agents; the per-task latency keeps the fleet job slow
	// enough to kill one agent genuinely mid-run.
	startAgent := func(name string) *exec.Cmd {
		agent := exec.Command(filepath.Join(bin, "optworker"),
			"-connect", fleetAddr, "-name", name, "-capacity", "2", "-latency", "2ms")
		if err := agent.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			agent.Process.Kill()
			agent.Wait()
		})
		return agent
	}
	victim := startAgent("victim")
	startAgent("survivor")

	// Wait for both agents to register.
	var health struct {
		Fleet struct {
			Workers     []map[string]any `json:"workers"`
			DeadWorkers uint64           `json:"dead_workers"`
		} `json:"fleet"`
	}
	poll(t, 30*time.Second, func() bool {
		health.Fleet.Workers = nil
		mustGetJSON(t, base+"/healthz", &health)
		return len(health.Fleet.Workers) == 2
	}, "both agents registered")

	spec := map[string]any{
		"objective": "rosenbrock", "dim": 3, "algorithm": "pc",
		"sigma0": 50.0, "seed": 13, "budget": 1e12, "tol": -1.0, "max_iterations": 150,
	}
	submit := func(fleet bool) string {
		s := map[string]any{}
		for k, v := range spec {
			s[k] = v
		}
		s["fleet"] = fleet
		payload, _ := json.Marshal(s)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != 202 {
			t.Fatalf("submit: %d %v", resp.StatusCode, out)
		}
		return out["id"]
	}

	fleetJob := submit(true)

	// Kill the victim once the job is demonstrably mid-run.
	var st struct {
		State      string `json:"state"`
		Iterations int    `json:"iterations"`
	}
	poll(t, 60*time.Second, func() bool {
		mustGetJSON(t, base+"/v1/jobs/"+fleetJob, &st)
		if st.State == "done" {
			t.Fatalf("fleet job finished before the kill could land; raise max_iterations")
		}
		return st.State == "running" && st.Iterations >= 15
	}, "fleet job mid-run")
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// The job must still complete, on the survivor alone.
	poll(t, 120*time.Second, func() bool {
		mustGetJSON(t, base+"/v1/jobs/"+fleetJob, &st)
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("fleet job ended %s after worker kill", st.State)
		}
		return st.State == "done"
	}, "fleet job completion after worker kill")

	// The reference: the same spec in-process on the same server.
	localJob := submit(false)
	poll(t, 60*time.Second, func() bool {
		mustGetJSON(t, base+"/v1/jobs/"+localJob, &st)
		return st.State == "done"
	}, "in-process job completion")

	result := func(id string) string {
		var res struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		mustGetJSON(t, base+"/v1/jobs/"+id+"/result", &res)
		if res.State != "done" || len(res.Result) == 0 {
			t.Fatalf("job %s result: state=%s body=%s", id, res.State, res.Result)
		}
		return string(res.Result)
	}
	fleetResult, localResult := result(fleetJob), result(localJob)
	if fleetResult != localResult {
		t.Errorf("fleet result (with mid-run worker kill) is not byte-identical to the in-process result\nfleet: %s\nlocal: %s",
			fleetResult, localResult)
	}

	mustGetJSON(t, base+"/healthz", &health)
	if health.Fleet.DeadWorkers != 1 || len(health.Fleet.Workers) != 1 {
		t.Errorf("healthz fleet after kill: %d dead, %d alive; want 1 and 1",
			health.Fleet.DeadWorkers, len(health.Fleet.Workers))
	}
}

// poll retries cond until it holds or the deadline passes.
func poll(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mustGetJSON fetches and decodes one JSON document.
func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
}
