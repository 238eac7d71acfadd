package serve_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/jobstore/storetest"
	"repro/internal/testfunc"
)

// admissionSpec is a short deterministic job on the named objective.
func admissionSpec(objective string) jobs.Spec {
	return jobs.Spec{
		Objective: objective, Dim: 3, Algorithm: "pc", Sigma0: 50,
		Seed: 17, Tol: -1, MaxIterations: 20, Tenant: "acme",
	}
}

// faultyWAL opens a WAL store in a fresh temp dir behind a fault wrapper;
// the manager given the wrapper closes it.
func faultyWAL(t *testing.T) (*storetest.Faults, string) {
	t.Helper()
	dir := t.TempDir()
	wal, err := jobstore.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	return storetest.NewFaults(wal), dir
}

// storedIDs reopens the WAL in dir and lists the record IDs it holds.
func storedIDs(t *testing.T, dir string) []string {
	t.Helper()
	st, err := jobstore.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	return ids
}

// resultBytes is the JSON a client would fetch for a finished job.
func resultBytes(t *testing.T, m *jobs.Manager, id string) []byte {
	t.Helper()
	res, err := m.Wait(id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reference runs spec on a manager with no store.
func reference(t *testing.T, spec jobs.Spec) []byte {
	t.Helper()
	m, err := jobs.New(jobs.Config{MaxConcurrent: 1,
		Objectives: map[string]func([]float64) float64{spec.Objective: testfunc.Rosenbrock}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, m, id)
}

// waitFor polls cond every millisecond until it holds, and fails the test
// after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// idle reports whether no tenant has a job queued or running, admissions
// in flight included.
func idle(m *jobs.Manager) bool {
	for _, ts := range m.Tenants() {
		if ts.Queued+ts.Running > 0 {
			return false
		}
	}
	return true
}

// expectUnknown checks that every lookup treats id as unknown.
func expectUnknown(t *testing.T, m *jobs.Manager, id string) {
	t.Helper()
	if _, err := m.Get(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Get(%s) = %v, want ErrNotFound", id, err)
	}
	if _, err := m.Result(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Result(%s) = %v, want ErrNotFound", id, err)
	}
	if _, err := m.Wait(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Wait(%s) = %v, want ErrNotFound", id, err)
	}
	if _, _, err := m.Subscribe(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Subscribe(%s) = %v, want ErrNotFound", id, err)
	}
	if err := m.Cancel(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Cancel(%s) = %v, want ErrNotFound", id, err)
	}
	for _, st := range m.List() {
		if st.ID == id {
			t.Errorf("List shows %s: %+v", id, st)
		}
	}
	if st := m.Stats(); st.Queued+st.Running+st.Done+st.Failed+st.Canceled != 0 {
		t.Errorf("Stats counts the job: %+v", st)
	}
}

// TestAdmissionFaults is the admission fault matrix: one row per (layer,
// fault, expected outcome), each fault injected by storetest.Faults into
// the admission Put (its PutLazy or its Sync) on a WAL store.
func TestAdmissionFaults(t *testing.T) {
	tests := []struct {
		layer   string
		fault   string
		outcome string
		run     func(t *testing.T)
	}{
		{"jobs", "Sync held", "the job runs while Submit blocks, is unknown until Submit returns, and ends byte-identical to a run with no store",
			admitSyncHeld},
		{"jobs", "PutLazy held", "the job finishes before its admission record is written; its delete still lands after that record, so no record survives a reopen",
			admitPutLazyHeld},
		{"jobs", "Sync fails", "Submit fails with ErrStore, the job is unknown everywhere, the tenant holds no slot, and no record survives a reopen",
			admitSyncFails},
		{"jobs", "Close races a held Sync", "either the ID comes back and the job recovers (or has finished) to the same bytes, or an error comes back and no record survives",
			admitCloseRace},
		{"serve", "ENOSPC on Sync", "POST /v1/jobs answers a 5xx JSON error with no id, and GET /v1/jobs lists nothing",
			admitENOSPCOverHTTP},
	}
	for _, tt := range tests {
		t.Run(tt.layer+"/"+tt.fault, func(t *testing.T) {
			t.Logf("want: %s", tt.outcome)
			tt.run(t)
		})
	}
}

func admitSyncHeld(t *testing.T) {
	f, _ := faultyWAL(t)
	release := make(chan struct{})
	reached := f.Hold(storetest.OpSync, 1, release)
	started := make(chan struct{})
	var once sync.Once
	m, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: f,
		Objectives: map[string]func([]float64) float64{"signal": func(x []float64) float64 {
			once.Do(func() { close(started) })
			return testfunc.Rosenbrock(x)
		}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := admissionSpec("signal")
	acked := make(chan error, 1)
	go func() {
		_, err := m.SubmitWithID("held", spec)
		acked <- err
	}()
	<-reached
	<-started
	select {
	case err := <-acked:
		t.Fatalf("Submit returned (%v) while its Sync was held", err)
	default:
	}
	expectUnknown(t, m, "held")
	close(release)
	if err := <-acked; err != nil {
		t.Fatalf("Submit after the Sync: %v", err)
	}
	if got, want := resultBytes(t, m, "held"), reference(t, spec); string(got) != string(want) {
		t.Fatalf("result diverged:\ngot  %s\nwant %s", got, want)
	}
}

func admitPutLazyHeld(t *testing.T) {
	f, dir := faultyWAL(t)
	release := make(chan struct{})
	reached := f.Hold(storetest.OpPutLazy, 1, release)
	// No snapshot is due within the run, so the only PutLazy is the
	// admission's.
	m, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: f, CheckpointEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	spec := admissionSpec("rosenbrock")
	acked := make(chan error, 1)
	go func() {
		_, err := m.SubmitWithID("early", spec)
		acked <- err
	}()
	<-reached
	waitFor(t, "the job to finish", func() bool { return idle(m) })
	expectUnknown(t, m, "early")
	close(release)
	if err := <-acked; err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got, want := resultBytes(t, m, "early"), reference(t, spec); string(got) != string(want) {
		t.Fatalf("result diverged:\ngot  %s\nwant %s", got, want)
	}
	m.Close()
	if ids := storedIDs(t, dir); len(ids) != 0 {
		t.Fatalf("records after the finished job's manager closed: %v, want none", ids)
	}
}

func admitSyncFails(t *testing.T) {
	f, dir := faultyWAL(t)
	f.Fail(storetest.OpSync, 1, syscall.ENOSPC)
	m, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: f})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.SubmitWithID("failed", admissionSpec("rosenbrock"))
	if !errors.Is(err, jobs.ErrStore) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Submit = %v, want ErrStore wrapping ENOSPC", err)
	}
	expectUnknown(t, m, "failed")
	for _, ts := range m.Tenants() {
		if ts.Queued != 0 || ts.Running != 0 || ts.Submitted != 0 {
			t.Errorf("tenant %s still accounts the job: %+v", ts.Tenant, ts)
		}
	}
	m.Close()
	if ids := storedIDs(t, dir); len(ids) != 0 {
		t.Fatalf("records after reopen: %v, want none", ids)
	}
}

func admitCloseRace(t *testing.T) {
	spec := admissionSpec("rosenbrock")
	want := string(reference(t, spec))
	outcomes := map[string]int{}
	for i := 0; i < 100; i++ {
		f, dir := faultyWAL(t)
		release := make(chan struct{})
		reached := f.Hold(storetest.OpSync, 1, release)
		m, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: f})
		if err != nil {
			t.Fatal(err)
		}
		acked := make(chan error, 1)
		go func() {
			_, err := m.SubmitWithID("race", spec)
			acked <- err
		}()
		<-reached
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			m.Close()
		}()
		if i%2 == 1 {
			// Let Close get as far as it can first: it has begun once a
			// repeated ID is refused with ErrClosed, and it has stopped the
			// job once the tenant runs nothing.
			waitFor(t, "Close to begin", func() bool {
				_, err := m.SubmitWithID("race", spec)
				return errors.Is(err, jobs.ErrClosed)
			})
			waitFor(t, "the job to stop", func() bool { return idle(m) })
		}
		close(release)
		err = <-acked
		<-closed
		ids := storedIDs(t, dir)
		switch {
		case err != nil:
			outcomes["refused"]++
			if len(ids) != 0 {
				t.Fatalf("run %d: a refused job left records %v", i, ids)
			}
		case len(ids) == 0:
			// Acknowledged, and done before Close: its record is dropped
			// and its result is in hand.
			outcomes["done"]++
			if got := string(resultBytes(t, m, "race")); got != want {
				t.Fatalf("run %d: result diverged:\ngot  %s\nwant %s", i, got, want)
			}
		default:
			outcomes["recovered"]++
			st, err := jobstore.OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := m2.Recover(); err != nil || len(got) != 1 || got[0] != "race" {
				t.Fatalf("run %d: Recover = %v, %v; want [race]", i, got, err)
			}
			if got := string(resultBytes(t, m2, "race")); got != want {
				t.Fatalf("run %d: recovered result diverged:\ngot  %s\nwant %s", i, got, want)
			}
			m2.Close()
		}
	}
	t.Logf("outcomes over 100 races: %v", outcomes)
}

func admitENOSPCOverHTTP(t *testing.T) {
	f, _ := faultyWAL(t)
	f.Fail(storetest.OpSync, 1, syscall.ENOSPC)
	ts, _ := startServer(t, jobs.Config{MaxConcurrent: 1, Store: f})
	code, body := post(t, ts.URL+"/v1/jobs", specJSON("acme", 7))
	if code/100 != 5 || body["error"] == nil || body["id"] != nil {
		t.Fatalf("submit on a full disk: code %d body %v, want a 5xx error with no id", code, body)
	}
	var list []map[string]any
	if code := get(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("GET /v1/jobs after the failed admission: code %d, %v; want an empty list", code, list)
	}
}
