package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestOptrouterProcessE2E is the shard-kill exercise CI runs with real
// processes: build optd and optrouter, start two optd shards of different
// store layouts behind a router whose shard table names no layout, push a load of jobs through the router, SIGKILL one
// shard mid-load, and assert the router declares it dead, fails its store
// over to the survivor, and that every recovered job completes with a
// result byte-identical to a fresh, uninterrupted run of the same spec.
func TestOptrouterProcessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := t.TempDir()
	for _, target := range []string{"optd", "optrouter"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, target), "./cmd/"+target)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", target, err, out)
		}
	}

	start := func(name string, args ...string) (*exec.Cmd, func(prefix string) string) {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		// Keep draining the child's output after startup: lines nobody
		// waits for are dropped, so a chatty event log can never fill the
		// pipe and wedge the process on a write.
		lines := make(chan string, 256)
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				select {
				case lines <- sc.Text():
				default:
				}
			}
			close(lines)
		}()
		waitLine := func(prefix string) string {
			deadline := time.After(30 * time.Second)
			for {
				select {
				case line, ok := <-lines:
					if !ok {
						t.Fatalf("%s exited before printing %q", name, prefix)
					}
					if strings.HasPrefix(line, prefix) {
						return strings.TrimSpace(strings.TrimPrefix(line, prefix))
					}
				case <-deadline:
					t.Fatalf("%s never printed %q", name, prefix)
				}
			}
		}
		return cmd, waitLine
	}

	// Two shards: the victim runs one job at a time so the load queues up
	// on it (durably, one file per job), the survivor (a WAL) has headroom
	// to absorb the failover. The router's -shard values carry no layout:
	// the survivor finds it in the victim's directory.
	dir0, dir1 := t.TempDir(), t.TempDir()
	victim, victimLine := start("optd",
		"-addr", "127.0.0.1:0", "-max-concurrent", "1", "-workers", "1",
		"-checkpoint-dir", dir0, "-store", "file")
	addr0 := victimLine("optd listening on ")
	_, survivorLine := start("optd",
		"-addr", "127.0.0.1:0", "-max-concurrent", "2", "-workers", "1",
		"-checkpoint-dir", dir1, "-store", "wal")
	addr1 := survivorLine("optd listening on ")

	_, routerLine := start("optrouter",
		"-addr", "127.0.0.1:0", "-probe", "50ms", "-dead-after", "500ms",
		"-shard", addr0+","+dir0,
		"-shard", addr1+","+dir1)
	base := "http://" + routerLine("optrouter listening on ")

	// Load: enough medium-sized jobs that the victim's queue is still
	// non-empty when the submissions end. A job's length comes from its
	// restart legs (one leg converges in ≈200 iterations), not from store
	// I/O: only admission waits for an fsync. Seeds index the specs so
	// reference runs can be replayed.
	const n = 16
	spec := func(seed int) string {
		return fmt.Sprintf(`{"objective":"rosenbrock","dim":3,"algorithm":"pc","sigma0":50,"seed":%d,"tol":-1,"budget":1e12,"max_iterations":400,"restarts":20,"tenant":"team%d"}`, seed, seed%2)
	}
	submit := func(body string) string {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %v", resp.StatusCode, out)
		}
		return out["id"]
	}
	seedOf := map[string]int{}
	for i := 0; i < n; i++ {
		id := submit(spec(1000 + i))
		seedOf[id] = 1000 + i
	}

	// Kill the victim once it demonstrably holds load: SIGKILL, no
	// graceful shutdown, no final checkpoint flush.
	var victimJobs []map[string]any
	poll(t, 30*time.Second, func() bool {
		victimJobs = nil
		if err := getJSON("http://"+addr0+"/v1/jobs", &victimJobs); err != nil {
			return false
		}
		active := 0
		for _, j := range victimJobs {
			if s := j["state"]; s == "queued" || s == "running" {
				active++
			}
		}
		return active >= 2
	}, "victim shard holding load")
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// The router must declare the victim dead and hand its range (and its
	// store) to the survivor.
	var health struct {
		Shards []struct {
			Dead    bool `json:"dead"`
			Adopter int  `json:"adopter"`
		} `json:"shards"`
	}
	poll(t, 30*time.Second, func() bool {
		if err := getJSON(base+"/healthz", &health); err != nil {
			return false
		}
		return len(health.Shards) == 2 && health.Shards[0].Dead
	}, "router declaring the victim dead")
	if health.Shards[0].Adopter != 1 {
		t.Fatalf("adopter = %d, want 1", health.Shards[0].Adopter)
	}

	// The survivor's roster must show adopted (resumed) jobs.
	var recovered []string
	poll(t, 30*time.Second, func() bool {
		var jobs []map[string]any
		if err := getJSON("http://"+addr1+"/v1/jobs", &jobs); err != nil {
			return false
		}
		recovered = recovered[:0]
		for _, j := range jobs {
			if j["resumed"] == true {
				recovered = append(recovered, j["id"].(string))
			}
		}
		return len(recovered) > 0
	}, "survivor adopting the victim's jobs")
	// The WAL survivor adopted the victim's directory as the file store it
	// is, and wrote no log of its own layout beside those records.
	if _, err := os.Stat(filepath.Join(dir0, "jobs.wal")); !os.IsNotExist(err) {
		t.Errorf("adopting the victim's file store left a jobs.wal in it (stat: %v)", err)
	}

	// Every recovered job drains through the router...
	for _, id := range recovered {
		poll(t, 120*time.Second, func() bool {
			var st map[string]any
			if err := getJSON(base+"/v1/jobs/"+id, &st); err != nil {
				return false
			}
			if s := st["state"]; s == "failed" || s == "canceled" {
				t.Fatalf("recovered job %s ended %v", id, s)
			}
			return st["state"] == "done"
		}, "recovered job "+id)
	}

	// ...with results byte-identical to fresh, uninterrupted runs of the
	// same specs, submitted through the same router.
	result := func(id string) string {
		var res struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		if err := getJSON(base+"/v1/jobs/"+id+"/result", &res); err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		if res.State != "done" || len(res.Result) == 0 {
			t.Fatalf("job %s result: state=%s body=%s", id, res.State, res.Result)
		}
		return string(res.Result)
	}
	for _, id := range recovered {
		seed, ok := seedOf[id]
		if !ok {
			t.Fatalf("recovered job %s was never submitted by this test", id)
		}
		ref := submit(spec(seed))
		poll(t, 120*time.Second, func() bool {
			var st map[string]any
			if err := getJSON(base+"/v1/jobs/"+ref, &st); err != nil {
				return false
			}
			return st["state"] == "done"
		}, "reference job "+ref)
		if got, want := result(id), result(ref); got != want {
			t.Errorf("recovered job %s (seed %d) is not byte-identical to its uninterrupted rerun\nrecovered: %s\nreference: %s",
				id, seed, got, want)
		}
	}

	// Tenant accounting still answers through the router after failover.
	var tl struct {
		Tenants []map[string]any `json:"tenants"`
	}
	if err := getJSON(base+"/v1/tenants", &tl); err != nil || len(tl.Tenants) == 0 {
		t.Fatalf("merged tenants after failover: %v %v", err, tl.Tenants)
	}

	// The router's /metrics lists what the router counts and nothing of the
	// engine it proxies to.
	want := []string{"shard_alive", "shard_failover_total", "shard_proxy_error_total"}
	if got := metricFamilies(t, base+"/metrics"); !slices.Equal(got, want) {
		t.Errorf("router /metrics families %v, want exactly %v", got, want)
	}
}

// metricFamilies scrapes url and returns the metric families its # TYPE
// lines name, sorted.
func metricFamilies(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var families []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			families = append(families, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(families)
	return families
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

// getJSON fetches one JSON document, returning an error on transport
// failure or a non-200 status (expected chaos while a shard is down).
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
