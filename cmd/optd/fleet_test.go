package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// startFleetServer brings up a server with a live fleet of n in-process
// agents, mirroring `optd -fleet-addr` + n optworkers without processes.
func startFleetServer(t *testing.T, n int, cfg jobs.Config) (*httptest.Server, *dist.Coordinator) {
	t.Helper()
	fleet := dist.NewCoordinator(dist.Config{})
	if err := fleet.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	ctx, cancel := context.WithCancel(context.Background())
	var stops []chan struct{}
	for i := 0; i < n; i++ {
		w := dist.NewWorker(dist.WorkerConfig{Addr: fleet.Addr().String(), Name: "t", Capacity: 2})
		done := make(chan struct{})
		stops = append(stops, done)
		go func() {
			defer close(done)
			w.RunLoop(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		for _, done := range stops {
			<-done
		}
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := fleet.WaitWorkers(wctx, n); err != nil {
		t.Fatal(err)
	}

	cfg.Fleet = fleet
	mgr, err := jobs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Mgr: mgr, Fleet: fleet, DefaultSeed: 1}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, fleet
}

// TestOptdFleetHealthz checks /healthz reports the fleet section: worker
// roster, capacity, and task counters.
func TestOptdFleetHealthz(t *testing.T) {
	ts, _ := startFleetServer(t, 2, jobs.Config{MaxConcurrent: 1})
	var health struct {
		OK    bool `json:"ok"`
		Fleet *struct {
			Workers  []map[string]any `json:"workers"`
			Capacity int              `json:"capacity"`
		} `json:"fleet"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if !health.OK || health.Fleet == nil {
		t.Fatalf("healthz missing fleet section: %+v", health)
	}
	if len(health.Fleet.Workers) != 2 || health.Fleet.Capacity != 4 {
		t.Errorf("fleet section %+v, want 2 workers with capacity 4", health.Fleet)
	}
}

// TestOptdFleetJobMatchesInProcess submits the same spec with and without
// "fleet": true and demands identical result payloads — the HTTP face of
// the fleet determinism contract.
func TestOptdFleetJobMatchesInProcess(t *testing.T) {
	ts, fleet := startFleetServer(t, 2, jobs.Config{MaxConcurrent: 2})
	spec := map[string]any{
		"objective": "rosenbrock", "dim": 3, "algorithm": "pc",
		"sigma0": 50.0, "seed": 9, "budget": 1e12, "tol": -1.0, "max_iterations": 40,
	}
	run := func(useFleet bool) json.RawMessage {
		s := map[string]any{}
		for k, v := range spec {
			s[k] = v
		}
		if useFleet {
			s["fleet"] = true
		}
		code, out := postJSON(t, ts.URL+"/v1/jobs", s)
		if code != 202 {
			t.Fatalf("submit: %d %v", code, out)
		}
		id := out["id"].(string)
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st struct {
				State string `json:"state"`
			}
			getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
			if st.State == "done" {
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				t.Fatalf("job %s ended %s", id, st.State)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
		var res struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res)
		return res.Result
	}
	fleetRes := run(true)
	localRes := run(false)
	if !reflect.DeepEqual(fleetRes, localRes) {
		t.Errorf("fleet result diverged from in-process result\nfleet: %s\nlocal: %s", fleetRes, localRes)
	}
	if st := fleet.Status(); st.CompletedTasks == 0 {
		t.Error("fleet executed no tasks; the fleet job did not actually use it")
	}
}

// TestOptdFleetSpecRejectedWithoutFleet checks the submission-time error
// when the server has no fleet listener.
func TestOptdFleetSpecRejectedWithoutFleet(t *testing.T) {
	ts := startTestServer(t, jobs.Config{})
	code, out := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"objective": "rosenbrock", "dim": 3, "sigma0": 10.0, "seed": 1, "fleet": true,
	})
	if code != 400 {
		t.Fatalf("submit: status %d %v, want 400", code, out)
	}
}
