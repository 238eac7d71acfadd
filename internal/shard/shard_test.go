package shard_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/testfunc"
)

// TestHashPinned pins the placement hash: it is a wire contract (every
// router replica must compute the same placement), so a change here is a
// breaking deployment change, not a refactor.
func TestHashPinned(t *testing.T) {
	cases := map[string]uint64{
		"":  14695981039346656037, // FNV-1a 64 offset basis
		"a": 12638187200555641996,
	}
	for id, want := range cases {
		if got := shard.Hash(id); got != want {
			t.Errorf("Hash(%q) = %d, want %d", id, got, want)
		}
	}
	// Pick must spread dense router IDs over both shards, and must be
	// stable run to run.
	counts := [2]int{}
	for i := 1; i <= 64; i++ {
		counts[shard.Pick(fmt.Sprintf("r%06d", i), 2)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("dense IDs all hash to one shard: %v", counts)
	}
}

// testShard is one in-process optd replica: a jobs.Manager behind the real
// serve handler.
type testShard struct {
	mgr *jobs.Manager
	ts  *httptest.Server
}

func (s *testShard) addr() string { return strings.TrimPrefix(s.ts.URL, "http://") }

// newTestShard starts a replica. gate, when non-nil, is consulted by the
// "gate" objective: evaluation blocks until the channel closes.
func newTestShard(t *testing.T, cfg jobs.Config, gate <-chan struct{}) *testShard {
	t.Helper()
	if gate != nil {
		cfg.Objectives = map[string]func([]float64) float64{
			"gate": func(x []float64) float64 {
				<-gate
				return testfunc.Rosenbrock(x)
			},
		}
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
	return &testShard{mgr: mgr, ts: ts}
}

// openWAL opens a WAL store in dir. The router's table names only the dir:
// the adopter finds the layout there.
func openWAL(t *testing.T, dir string) jobstore.Store {
	t.Helper()
	st, err := jobstore.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
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

func waitTerminal(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st map[string]any
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code == http.StatusOK {
			switch st["state"] {
			case "done", "failed", "canceled":
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

func specBody(tenant string, seed int64) string {
	return fmt.Sprintf(`{"objective":"rosenbrock","dim":3,"algorithm":"pc","sigma0":50,"seed":%d,"tol":-1,"max_iterations":20,"tenant":%q}`, seed, tenant)
}

// TestRouterRouting: submissions spread by ID hash, job-scoped requests
// route to the right shard, lists and tenant accounting merge.
func TestRouterRouting(t *testing.T) {
	s0 := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)
	s1 := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{{Addr: s0.addr()}, {Addr: s1.addr()}},
		Probe:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)

	tenants := []string{"acme", "globex"}
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		code, body := postJSON(t, rt.URL+"/v1/jobs", specBody(tenants[i%2], int64(i+1)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %v", i, code, body)
		}
		ids = append(ids, body["id"].(string))
	}

	// Every job is visible and finishes through the router, and each lives
	// on exactly the shard its hash names.
	shards := []*testShard{s0, s1}
	spread := [2]int{}
	for _, id := range ids {
		if st := waitTerminal(t, rt.URL, id); st["state"] != "done" {
			t.Fatalf("job %s: %v", id, st)
		}
		home := shard.Pick(id, 2)
		spread[home]++
		if _, err := shards[home].mgr.Get(id); err != nil {
			t.Fatalf("job %s not on home shard %d: %v", id, home, err)
		}
		if _, err := shards[1-home].mgr.Get(id); err == nil {
			t.Fatalf("job %s present on both shards", id)
		}
		// The result is served through the router too.
		var res map[string]any
		if code := getJSON(t, rt.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
			t.Fatalf("result %s: code %d", id, code)
		}
	}
	if spread[0] == 0 || spread[1] == 0 {
		t.Fatalf("hash placed every job on one shard: %v", spread)
	}

	// Merged list: all 8 jobs, sorted by ID.
	var list []map[string]any
	if code := getJSON(t, rt.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 8 {
		t.Fatalf("merged list: code %d len %d", code, len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1]["id"].(string) >= list[i]["id"].(string) {
			t.Fatalf("merged list not sorted: %v >= %v", list[i-1]["id"], list[i]["id"])
		}
	}

	// Merged tenants: both namespaces, 4 submissions each across shards.
	var tl struct {
		Tenants []jobs.TenantStats `json:"tenants"`
	}
	if code := getJSON(t, rt.URL+"/v1/tenants", &tl); code != http.StatusOK || len(tl.Tenants) != 2 {
		t.Fatalf("merged tenants: code %d %v", code, tl.Tenants)
	}
	for _, ts := range tl.Tenants {
		if ts.Submitted != 4 {
			t.Fatalf("tenant %s submitted = %d, want 4 (merged)", ts.Tenant, ts.Submitted)
		}
	}
}

// TestRouterFailover: kill one shard mid-load, watch the router declare it
// dead, fail its durable store over to the survivor, and serve the dead
// shard's jobs — resumed deterministically, results identical to a fresh
// reference run.
func TestRouterFailover(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }

	dir0, dir1 := t.TempDir(), t.TempDir()
	// Shard 0 has one runner, occupied by a gated blocker: every routed
	// job that lands there stays queued with a durable spec-only record.
	s0 := newTestShard(t, jobs.Config{MaxConcurrent: 1, Store: openWAL(t, dir0)}, gate)
	s1 := newTestShard(t, jobs.Config{MaxConcurrent: 4, Store: openWAL(t, dir1)}, gate)
	t.Cleanup(release) // LIFO: release the gate before the managers Close

	blocker := `{"objective":"gate","dim":3,"algorithm":"pc","sigma0":50,"seed":99,"tol":-1,"max_iterations":5}`
	if code, body := postJSON(t, s0.ts.URL+"/v1/jobs?id=blocker0", blocker); code != http.StatusAccepted {
		t.Fatalf("blocker: code %d body %v", code, body)
	}

	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{
			{Addr: s0.addr(), Dir: dir0},
			{Addr: s1.addr(), Dir: dir1},
		},
		Probe:     20 * time.Millisecond,
		DeadAfter: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)

	// Load: shard-1 jobs complete; shard-0 jobs queue behind the blocker.
	var onDead []string
	var seeds = map[string]int64{}
	for i := 0; i < 10; i++ {
		seed := int64(100 + i)
		code, body := postJSON(t, rt.URL+"/v1/jobs", specBody("acme", seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %v", i, code, body)
		}
		id := body["id"].(string)
		seeds[id] = seed
		if shard.Pick(id, 2) == 0 {
			onDead = append(onDead, id)
		}
	}
	if len(onDead) == 0 {
		t.Fatal("no routed job hashed to shard 0; widen the load")
	}

	// Kill shard 0 (network death: its listener goes away, its queued
	// jobs' records stay in dir0).
	s0.ts.Close()

	// The router must declare it dead and hand its range to shard 1.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var health struct {
			Shards []shard.ShardStatus `json:"shards"`
		}
		getJSON(t, rt.URL+"/healthz", &health)
		if len(health.Shards) == 2 && health.Shards[0].Dead {
			if health.Shards[0].Adopter != 1 {
				t.Fatalf("adopter = %d, want 1", health.Shards[0].Adopter)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 never declared dead: %+v", health.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every job that lived on shard 0 finishes through the router — on
	// shard 1, marked resumed, with results identical to a fresh run of
	// the same spec (placement moved; the computation did not change).
	for _, id := range onDead {
		st := waitTerminal(t, rt.URL, id)
		if st["state"] != "done" || st["resumed"] != true {
			t.Fatalf("adopted job %s: %v", id, st)
		}
		if _, err := s1.mgr.Get(id); err != nil {
			t.Fatalf("adopted job %s not on shard 1: %v", id, err)
		}
		ref := runReference(t, seeds[id])
		if got := st["best_g"].(float64); got != ref.BestG {
			t.Fatalf("job %s best_g = %v, want reference %v", id, got, ref.BestG)
		}
		if got := int(st["iterations"].(float64)); got != ref.Iterations {
			t.Fatalf("job %s iterations = %d, want reference %d", id, got, ref.Iterations)
		}
	}
	release()
}

// runReference runs the routed spec in a fresh standalone manager and
// returns its terminal status — the determinism baseline.
func runReference(t *testing.T, seed int64) jobs.Status {
	t.Helper()
	m, err := jobs.New(jobs.Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(jobs.Spec{
		Objective: "rosenbrock", Dim: 3, Algorithm: "pc", Sigma0: 50,
		Seed: seed, Tol: -1, MaxIterations: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRouterAllDead: a router whose whole table is unreachable serves 503s.
func TestRouterAllDead(t *testing.T) {
	r, err := shard.New(shard.Config{
		Shards:    []shard.Shard{{Addr: "127.0.0.1:1"}},
		Probe:     10 * time.Millisecond,
		DeadAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var health struct {
			OK     bool                `json:"ok"`
			Shards []shard.ShardStatus `json:"shards"`
		}
		code := getJSON(t, rt.URL+"/healthz", &health)
		if code == http.StatusServiceUnavailable && len(health.Shards) == 1 && health.Shards[0].Dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never reported all-dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, body := postJSON(t, rt.URL+"/v1/jobs", specBody("", 1)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit with all shards dead: code %d body %v", code, body)
	}
	if err := shardNewEmpty(); err == nil {
		t.Fatal("New with empty table succeeded")
	}
}

func shardNewEmpty() error {
	_, err := shard.New(shard.Config{})
	return err
}

// TestRouterDegradedMerge is the regression test for all-or-nothing merges:
// a shard dying between the router's health probe and the merge fetch must
// not blow away the healthy shards' answers. The router retries through the
// failover chain (none here — the shard just died), then returns the
// partial merge wrapped with a "degraded" field instead of a 502.
func TestRouterDegradedMerge(t *testing.T) {
	s0 := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)
	s1 := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{{Addr: s0.addr()}, {Addr: s1.addr()}},
		// The probe never fires again after startup: the kill below lands
		// exactly in the probe-to-proxy window the bug lived in.
		Probe:     time.Hour,
		DeadAfter: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)

	// Two jobs per shard, submitted directly so the spread is fixed.
	for i := 0; i < 2; i++ {
		if code, body := postJSON(t, s0.ts.URL+"/v1/jobs", specBody("acme", int64(i+1))); code != http.StatusAccepted {
			t.Fatalf("s0 submit: code %d body %v", code, body)
		}
		if code, body := postJSON(t, s1.ts.URL+"/v1/jobs", specBody("acme", int64(i+10))); code != http.StatusAccepted {
			t.Fatalf("s1 submit: code %d body %v", code, body)
		}
	}

	// Healthy baseline: a plain merged array, no degradation wrapper.
	var whole []map[string]any
	if code := getJSON(t, rt.URL+"/v1/jobs", &whole); code != http.StatusOK || len(whole) != 4 {
		t.Fatalf("healthy merge: code %d len %d", code, len(whole))
	}

	// Kill shard 0 inside the probe window: the router still believes it
	// is serving.
	s0.ts.Close()

	var partial struct {
		Jobs     []map[string]any `json:"jobs"`
		Degraded []string         `json:"degraded"`
	}
	if code := getJSON(t, rt.URL+"/v1/jobs", &partial); code != http.StatusOK {
		t.Fatalf("degraded merge: code %d, want 200 with partial results", code)
	}
	if len(partial.Jobs) != 2 {
		t.Fatalf("degraded merge returned %d jobs, want shard 1's 2", len(partial.Jobs))
	}
	if len(partial.Degraded) != 1 || partial.Degraded[0] != s0.addr() {
		t.Fatalf("degraded field = %v, want [%s]", partial.Degraded, s0.addr())
	}

	// The tenants merge degrades the same way: shard 1's accounting
	// survives, the dead shard is reported.
	var tl struct {
		Tenants  []jobs.TenantStats `json:"tenants"`
		Degraded []string           `json:"degraded"`
	}
	if code := getJSON(t, rt.URL+"/v1/tenants", &tl); code != http.StatusOK {
		t.Fatalf("degraded tenants: code %d", code)
	}
	if len(tl.Tenants) != 1 || tl.Tenants[0].Submitted != 2 {
		t.Fatalf("degraded tenants merge: %+v", tl.Tenants)
	}
	if len(tl.Degraded) != 1 || tl.Degraded[0] != s0.addr() {
		t.Fatalf("tenants degraded field = %v, want [%s]", tl.Degraded, s0.addr())
	}
}

// hangListener is a hung shard's listener: it accepts TCP connections and
// holds them open, never reading or answering (a SIGSTOPped or blackholed
// replica). While healthy is set it hands connections to its Accept caller
// instead, so a shard served from it can answer for a while, then hang.
type hangListener struct {
	net.Listener
	healthy atomic.Bool

	mu    sync.Mutex
	conns []net.Conn // guarded by mu: held open, never written to
}

func newHangListener(t *testing.T) *hangListener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &hangListener{Listener: ln}
	t.Cleanup(func() {
		ln.Close()
		l.release()
	})
	return l
}

// release closes the connections held so far, failing whatever waits on them.
func (l *hangListener) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// Accept returns the next connection while the listener is healthy and
// holds every other one; it returns only on a healthy connection or an
// error (the listener closed).
func (l *hangListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || l.healthy.Load() {
			return c, err
		}
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
}

// TestRouterHungShard is the gray-failure twin of TestRouterFailover: shard
// 0 accepts TCP connections and never answers (a SIGSTOPped or blackholed
// replica). The prober must give up on it after DeadAfter, declare it dead
// and hand its range to shard 1, instead of waiting on it forever with
// shard 1's probes stuck behind it.
func TestRouterHungShard(t *testing.T) {
	ln := newHangListener(t)
	go ln.Accept() // holds every connection until the listener closes
	s1 := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)

	const deadAfter = 200 * time.Millisecond
	// New runs the first probe sweep itself, so without a probe deadline it
	// never returns.
	type built struct {
		r   *shard.Router
		err error
	}
	builtc := make(chan built, 1)
	go func() {
		r, err := shard.New(shard.Config{
			Shards:    []shard.Shard{{Addr: ln.Addr().String()}, {Addr: s1.addr()}},
			Probe:     20 * time.Millisecond,
			DeadAfter: deadAfter,
		})
		builtc <- built{r, err}
	}()
	var r *shard.Router
	select {
	case b := <-builtc:
		if b.err != nil {
			t.Fatal(b.err)
		}
		r = b.r
	case <-time.After(25 * deadAfter):
		t.Fatal("shard.New still waiting on the hung shard's first probe")
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)

	deadline := time.Now().Add(25 * deadAfter)
	for {
		var health struct {
			Shards []shard.ShardStatus `json:"shards"`
		}
		getJSON(t, rt.URL+"/healthz", &health)
		if len(health.Shards) == 2 && health.Shards[0].Dead {
			if health.Shards[0].Adopter != 1 || !health.Shards[1].Alive {
				t.Fatalf("after the hung shard's death: %+v, want adopter 1 alive", health.Shards)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hung shard 0 never declared dead: %+v", health.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Its hash range is served by shard 1: every routed job completes.
	for i := 0; i < 4; i++ {
		code, body := postJSON(t, rt.URL+"/v1/jobs", specBody("acme", int64(200+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %v", i, code, body)
		}
		if st := waitTerminal(t, rt.URL, body["id"].(string)); st["state"] != "done" {
			t.Fatalf("job %v: %v", body["id"], st)
		}
	}
}

// eventSink receives a Logger's NDJSON lines, one per event; a full sink
// drops lines rather than stall the emitter.
type eventSink chan string

func (s eventSink) Write(p []byte) (int, error) {
	select {
	case s <- string(p):
	default:
	}
	return len(p), nil
}

// TestRouterHungAdopter: the shard that inherits a dead shard's range accepts
// the /v1/failover request and never answers. The adoption attempt must give
// up after DeadAfter with shard_adopt_error, and the prober must go on
// probing the other shards instead of waiting on the adopter.
func TestRouterHungAdopter(t *testing.T) {
	const deadAfter = 200 * time.Millisecond
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	goneAddr := gone.Addr().String()
	gone.Close() // shard 0 refuses every connection from the start

	release := make(chan struct{})
	adopter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/failover" {
			select { // hold the adoption until the router gives up on it
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte("{}"))
	}))
	t.Cleanup(adopter.Close)
	var probes atomic.Int64
	watched := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		w.Write([]byte("{}"))
	}))
	t.Cleanup(watched.Close)

	events := make(eventSink, 1024) // the router emits a few events per DeadAfter; none may be dropped before the test reads it
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{
			{Addr: goneAddr, Dir: t.TempDir()},
			{Addr: strings.TrimPrefix(adopter.URL, "http://")},
			{Addr: strings.TrimPrefix(watched.URL, "http://")},
		},
		Probe:     20 * time.Millisecond,
		DeadAfter: deadAfter,
		Events:    obs.NewLogger(events),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	t.Cleanup(func() { close(release) }) // runs first: a router that never gave up can still close

	waitEvent := func(name string) time.Time {
		t.Helper()
		timeout := time.After(25 * deadAfter)
		for {
			select {
			case line := <-events:
				if strings.Contains(line, `"event":"`+name+`"`) {
					return time.Now()
				}
			case <-timeout:
				t.Fatalf("no %s event after %v", name, 25*deadAfter)
			}
		}
	}
	dead := waitEvent("shard_dead")
	if waited := waitEvent("shard_adopt_error").Sub(dead); waited > 5*deadAfter {
		t.Errorf("adoption gave up %v after the death, want about DeadAfter (%v)", waited, deadAfter)
	}
	before := probes.Load()
	deadline := time.Now().Add(25 * deadAfter)
	for probes.Load() < before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("shard 2 probed %d times since the failed adoption, want probing to go on", probes.Load()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// adoptGate is the adopting manager's event sink. It counts store_adopt
// events, one per store the manager takes over, and holds the first one until
// release closes, so that adoption outlasts DeadAfter.
type adoptGate struct {
	opened  atomic.Int64
	release chan struct{}
}

func (g *adoptGate) Write(p []byte) (int, error) {
	if strings.Contains(string(p), `"event":"store_adopt"`) && g.opened.Add(1) == 1 {
		<-g.release
	}
	return len(p), nil
}

// TestRouterSlowAdoption: the adopter's recovery of a dead shard's store
// outlasts DeadAfter, so the router gives up on the POST and retries it on
// later ticks while the first adoption is still running. The adopter must
// open the store exactly once, answer a retry with that adoption, and run the
// dead shard's job to completion.
func TestRouterSlowAdoption(t *testing.T) {
	const deadAfter = 200 * time.Millisecond
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	goneAddr := gone.Addr().String()
	gone.Close() // shard 0 refuses every connection from the start

	// Shard 0's store: one durable job, recorded and never finished. A job
	// may start before Submit returns, so it is held at its first objective
	// call until Close has canceled it; shutdown keeps its record.
	deadDir := t.TempDir()
	held := make(chan struct{})
	m0, err := jobs.New(jobs.Config{MaxConcurrent: 1, Store: openWAL(t, deadDir),
		Objectives: map[string]func([]float64) float64{
			"gated": func(x []float64) float64 { <-held; return testfunc.Rosenbrock(x) },
		}})
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{
		Objective: "gated", Dim: 3, Algorithm: "pc", Sigma0: 50,
		Seed: 43, Tol: -1, MaxIterations: 20, Tenant: "acme",
	}
	id, err := m0.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		m0.Close()
	}()
	// A repeated ID is refused with ErrClosed once Close has begun.
	for {
		if _, err := m0.SubmitWithID(id, spec); errors.Is(err, jobs.ErrClosed) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(held)
	<-closed

	gate := &adoptGate{release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	adopter := newTestShard(t, jobs.Config{MaxConcurrent: 1, Events: obs.NewLogger(gate),
		Objectives: map[string]func([]float64) float64{"gated": testfunc.Rosenbrock}}, nil)
	t.Cleanup(release) // LIFO: release the gate before the adopter closes

	events := make(eventSink, 1024)
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{
			{Addr: goneAddr, Dir: deadDir},
			{Addr: adopter.addr()},
		},
		Probe:     20 * time.Millisecond,
		DeadAfter: deadAfter,
		Events:    obs.NewLogger(events),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	waitEvent := func(name string) {
		t.Helper()
		timeout := time.After(25 * deadAfter)
		for {
			select {
			case line := <-events:
				if strings.Contains(line, `"event":"`+name+`"`) {
					return
				}
			case <-timeout:
				t.Fatalf("no %s event after %v", name, 25*deadAfter)
			}
		}
	}
	waitEvent("shard_dead")
	waitEvent("shard_adopt_error") // the first POST, held by the gate
	waitEvent("shard_adopt_error") // a retry, while the first adoption still runs
	release()
	waitEvent("shard_adopt")

	if st := waitTerminal(t, adopter.ts.URL, id); st["state"] != "done" || st["resumed"] != true {
		t.Fatalf("adopted job %s: %v", id, st)
	}
	if n := gate.opened.Load(); n != 1 {
		t.Fatalf("adopter took over the dead shard's store %d times, want once", n)
	}
}

// TestRouterMergeHungShard: a shard that passed its last probe and then hung
// must not hold the cross-shard merges. GET /v1/jobs and /v1/tenants give
// up on it after DeadAfter and answer with the healthy shards' pages and the
// hung shard in "degraded", long before the prober would declare it dead.
func TestRouterMergeHungShard(t *testing.T) {
	ln := newHangListener(t)
	ln.healthy.Store(true)
	hung := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	})}
	go hung.Serve(ln)
	t.Cleanup(func() { hung.Close() })
	s1 := newTestShard(t, jobs.Config{MaxConcurrent: 2}, nil)
	if code, body := postJSON(t, s1.ts.URL+"/v1/jobs", specBody("acme", 1)); code != http.StatusAccepted {
		t.Fatalf("s1 submit: code %d body %v", code, body)
	}

	const deadAfter = 300 * time.Millisecond
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{{Addr: ln.Addr().String()}, {Addr: s1.addr()}},
		// New's own sweep is the last probe: shard 0 passes it and then
		// stays "serving" for the rest of the test.
		Probe:     time.Hour,
		DeadAfter: deadAfter,
		// Every fetch dials afresh, so none rides a connection shard 0
		// accepted while it was still healthy.
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)
	t.Cleanup(ln.release) // before rt.Close, which waits for a merge stuck on shard 0
	ln.healthy.Store(false)

	client := &http.Client{Timeout: 20 * deadAfter}
	for _, path := range []string{"/v1/jobs", "/v1/tenants"} {
		resp, err := client.Get(rt.URL + path)
		if err != nil {
			t.Fatalf("GET %s with shard 0 hung: %v", path, err)
		}
		var page struct {
			Jobs     []jobs.Status      `json:"jobs"`
			Tenants  []jobs.TenantStats `json:"tenants"`
			Degraded []string           `json:"degraded"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: code %d, %v", path, resp.StatusCode, err)
		}
		if len(page.Degraded) != 1 || page.Degraded[0] != ln.Addr().String() {
			t.Fatalf("GET %s: degraded = %v, want [%s]", path, page.Degraded, ln.Addr())
		}
		if len(page.Jobs)+len(page.Tenants) != 1 {
			t.Fatalf("GET %s: %d jobs, %d tenants, want shard 1's one", path, len(page.Jobs), len(page.Tenants))
		}
	}
}
