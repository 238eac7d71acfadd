package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildFleetBinaries compiles optd and optworker into a temp dir and returns
// it. Shared by every process-level e2e test in this package.
func buildFleetBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, target := range []string{"optd", "optworker"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, target), "./cmd/"+target)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", target, err, out)
		}
	}
	return bin
}

// lineWaiter scans a process's merged output and returns the suffix of the
// first line carrying a given prefix.
func lineWaiter(t *testing.T, cmd *exec.Cmd, who string) func(prefix string) string {
	t.Helper()
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
	lines := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return func(prefix string) string {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("%s exited before printing %q", who, prefix)
				}
				if strings.HasPrefix(line, prefix) {
					return strings.TrimSpace(strings.TrimPrefix(line, prefix))
				}
			case <-deadline:
				t.Fatalf("%s never printed %q", who, prefix)
			}
		}
	}
}

// scrapeMetrics fetches a /metrics endpoint and parses the Prometheus text
// exposition into a map keyed by full series name (labels included).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("%s: Content-Type = %q, want text/plain exposition", url, ct)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed sample line %q", url, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%s: malformed value in %q: %v", url, line, err)
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// sumSeries totals every series whose name starts with base (covering all
// label combinations of one metric).
func sumSeries(series map[string]float64, base string) float64 {
	var sum float64
	for name, v := range series {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += v
		}
	}
	return sum
}

// TestOptdMetricsE2E is the observability end-to-end exercise: real optd and
// optworker processes, one in-process job (its cost-free draws run on the
// job goroutine) and one fleet job (driving the dist wire), then a scrape of
// optd's /metrics and of the agent's -debug-addr listener asserting the
// cross-layer metric catalog is present and moving.
func TestOptdMetricsE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildFleetBinaries(t)

	optd := exec.Command(filepath.Join(bin, "optd"),
		"-addr", "127.0.0.1:0", "-fleet-addr", "127.0.0.1:0", "-max-concurrent", "2")
	optdLine := lineWaiter(t, optd, "optd")
	fleetAddr := optdLine("fleet listening on ")
	fleetAddr, _, _ = strings.Cut(fleetAddr, " (")
	base := "http://" + optdLine("optd listening on ")

	agent := exec.Command(filepath.Join(bin, "optworker"),
		"-connect", fleetAddr, "-name", "obs", "-capacity", "2", "-debug-addr", "127.0.0.1:0")
	agentLine := lineWaiter(t, agent, "optworker")
	debugAddr := agentLine("optworker debug listening on ")
	debugAddr, _, _ = strings.Cut(debugAddr, " (")

	var health struct {
		Fleet struct {
			Workers []map[string]any `json:"workers"`
		} `json:"fleet"`
		Metrics map[string]any `json:"metrics"`
	}
	poll(t, 30*time.Second, func() bool {
		health.Fleet.Workers = nil
		mustGetJSON(t, base+"/healthz", &health)
		return len(health.Fleet.Workers) == 1
	}, "agent registered")
	if health.Metrics == nil {
		t.Error("healthz carries no metrics snapshot")
	}

	// One job sampled in-process, one over the fleet, so the scrape covers
	// both sampling paths.
	for _, fleet := range []bool{false, true} {
		spec := fmt.Sprintf(`{"objective":"rosenbrock","dim":3,"algorithm":"pc",
			"sigma0":50,"seed":13,"budget":1e12,"tol":-1,"max_iterations":60,"fleet":%v}`, fleet)
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != 202 {
			t.Fatalf("submit fleet=%v: %d %v", fleet, resp.StatusCode, out)
		}
		id := out["id"]
		var st struct {
			State string `json:"state"`
		}
		poll(t, 60*time.Second, func() bool {
			mustGetJSON(t, base+"/v1/jobs/"+id, &st)
			if st.State == "failed" || st.State == "canceled" {
				t.Fatalf("job %s (fleet=%v) ended %s", id, fleet, st.State)
			}
			return st.State == "done"
		}, "job completion")
	}

	series := scrapeMetrics(t, base+"/metrics")
	for _, m := range []string{
		"sim_batches_total",
		"sim_draws_total",
		"sim_points_total",
		"core_iterations_total",
		"jobs_completed_total",
		"dist_frames_total",
		"dist_bytes_total",
		"dist_tasks_completed_total",
		"dist_dispatch_rtt_seconds_count",
	} {
		if v := sumSeries(series, m); v <= 0 {
			t.Errorf("optd /metrics: %s = %v, want > 0", m, v)
		}
	}
	// optd has no flag that gives an increment a cost, so neither job queues
	// a task on the sched pool: its series must be exported but may read 0.
	for _, m := range []string{"sched_batches_total", "sched_tasks_total"} {
		if _, ok := series[m]; !ok {
			t.Errorf("optd /metrics: %s missing", m)
		}
	}
	// RTT sanity: the recorded round trips must be positive and under the
	// job's wall clock (a minute is generous for 2ms tasks on localhost).
	if sum := sumSeries(series, "dist_dispatch_rtt_seconds_sum"); sum <= 0 || sum/sumSeries(series, "dist_dispatch_rtt_seconds_count") > 60 {
		t.Errorf("optd /metrics: implausible RTT sum %v over %v observations",
			sum, sumSeries(series, "dist_dispatch_rtt_seconds_count"))
	}

	// The agent's own registry, on its debug listener.
	agentSeries := scrapeMetrics(t, "http://"+debugAddr+"/metrics")
	for _, m := range []string{
		"dist_worker_sessions_total",
		"dist_worker_tasks_total",
		"dist_frames_total",
	} {
		if v := sumSeries(agentSeries, m); v <= 0 {
			t.Errorf("optworker /metrics: %s = %v, want > 0", m, v)
		}
	}
	// A healthy two-lane fleet never asks an agent for a draw behind its
	// cached position, so the restart counter must be exposed but may read 0.
	if _, ok := agentSeries["dist_worker_stream_reseeds_total"]; !ok {
		t.Error("optworker /metrics: dist_worker_stream_reseeds_total missing")
	}

	// pprof rides the same mux on both processes.
	for _, url := range []string{base + "/debug/pprof/cmdline", "http://" + debugAddr + "/debug/pprof/cmdline"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", url, resp.StatusCode)
		}
	}
}

// TestOptworkerFatalExitCodes asserts the agent's startup failure surface:
// distinct exit codes and a structured worker_fatal event on stderr, not a
// silent death.
func TestOptworkerFatalExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	bin := buildFleetBinaries(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad connect", []string{"-connect", "no-such-host.invalid:bogus"}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, "optworker"), tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("optworker %v: err = %v, want exit error\n%s", tc.args, err, out)
			}
			if got := ee.ExitCode(); got != tc.code {
				t.Errorf("optworker %v: exit code %d, want %d\n%s", tc.args, got, tc.code, out)
			}
			if !strings.Contains(string(out), `"event":"worker_fatal"`) {
				t.Errorf("optworker %v: no worker_fatal event in output:\n%s", tc.args, out)
			}
		})
	}
}
