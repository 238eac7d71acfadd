package shard_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/h1"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/testfunc"
)

// newRouter starts a router over the given shard addresses with the default
// (tuned) client and serves its handler.
func newRouter(t testing.TB, deadAfter time.Duration, addrs ...string) *httptest.Server {
	t.Helper()
	var shards []shard.Shard
	for _, a := range addrs {
		shards = append(shards, shard.Shard{Addr: a})
	}
	r, err := shard.New(shard.Config{Shards: shards, Probe: time.Hour, DeadAfter: deadAfter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rt := httptest.NewServer(r.Handler())
	t.Cleanup(rt.Close)
	return rt
}

// TestRouterReusesShardConnections: concurrent clients polling through the
// router ride kept-alive shard connections instead of dialing one every few
// requests, and every non-stream answer keeps the shard's Content-Length
// instead of going out chunked.
//
// The check counts proxied requests that got a reused connection
// (httptrace GotConnInfo.Reused, which the router's hop reports through the
// request context) after a warm-up. It does not count the shard's dials,
// because an injected net/http client dials and also waits for a busy
// connection to come back to its idle pool, and a put-back that wins leaves
// the finished dial parked unused. How many such dials happen depends on
// scheduling, not on keep-alive, so a dial count is no stable measure.
func TestRouterReusesShardConnections(t *testing.T) {
	mgr, err := jobs.New(jobs.Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{{Addr: strings.TrimPrefix(ts.URL, "http://")}},
		Probe:  time.Hour, DeadAfter: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	var reused, fresh atomic.Int64
	trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) {
		if ci.Reused {
			reused.Add(1)
		} else {
			fresh.Add(1)
		}
	}}
	rt := httptest.NewUnstartedServer(r.Handler())
	rt.Config.BaseContext = func(net.Listener) context.Context {
		return httptrace.WithClientTrace(context.Background(), trace)
	}
	rt.Start()
	t.Cleanup(rt.Close)

	code, body := postJSON(t, rt.URL+"/v1/jobs", specBody("acme", 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	waitTerminal(t, rt.URL, id)

	const clients = 4
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	t.Cleanup(client.CloseIdleConnections)
	var chunked atomic.Int64
	poll := func(polls int) {
		errc := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := 0; p < polls; p++ {
					resp, err := client.Get(rt.URL + "/v1/jobs/" + id)
					if err != nil {
						errc <- err
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("status poll: code %d, %v", resp.StatusCode, err)
						return
					}
					if resp.ContentLength < 0 {
						chunked.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
	poll(100) // warm-up: the pool grows to the client count
	reused.Store(0)
	fresh.Store(0)
	chunked.Store(0)
	const polls = 500
	poll(polls)
	n, f := reused.Load(), fresh.Load()
	if n+f != clients*polls {
		t.Fatalf("traced %d proxied requests, want %d", n+f, clients*polls)
	}
	// A pool that keeps its connections needs at most one fresh one per
	// client, whatever the poll count: 99.8% reused here. One that drops
	// them (net/http's default two idle per host) dials at a steady rate
	// and lands near 99.5% on one core, 99% on two.
	if share := float64(n) / float64(n+f); share < 0.998 {
		t.Errorf("%.2f%% of %d proxied polls from %d clients rode a reused shard connection (%d fresh), want at least 99.8%%",
			100*share, n+f, clients, f)
	}
	if n := chunked.Load(); n != 0 {
		t.Errorf("%d of %d status answers went out chunked, want every one with its Content-Length", n, clients*polls)
	}
}

// TestRouterProxyHungShard: a shard that passed its last probe and then hung
// must not hold a proxied call. Status and submit give up after DeadAfter with
// a 504, and the timed-out submit names the ID it minted so the client can
// poll for that job instead of resubmitting it.
func TestRouterProxyHungShard(t *testing.T) {
	ln := newHangListener(t)
	ln.healthy.Store(true)
	hung := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	})}
	// Every connection closes after one answer, so the calls below dial
	// afresh into the hung listener instead of riding the probe's.
	hung.SetKeepAlivesEnabled(false)
	go hung.Serve(ln)
	t.Cleanup(func() { hung.Close() })

	const deadAfter = 300 * time.Millisecond
	rt := newRouter(t, deadAfter, ln.Addr().String()) // New's sweep is the last probe
	t.Cleanup(ln.release)                             // before rt.Close, which waits for a call stuck on the shard
	ln.healthy.Store(false)

	errs := obs.Default().Counter("shard_proxy_error_total")
	client := &http.Client{Timeout: 20 * deadAfter}
	for _, call := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/jobs/r000001", ""},
		{http.MethodPost, "/v1/jobs", specBody("acme", 1)},
	} {
		before := errs.Value()
		req, err := http.NewRequest(call.method, rt.URL+call.path, strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s with the shard hung: %v", call.method, call.path, err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if took := time.Since(start); err != nil || resp.StatusCode != http.StatusGatewayTimeout || took > 5*deadAfter {
			t.Fatalf("%s %s: code %d after %v (%v), want 504 within about DeadAfter (%v)", call.method, call.path, resp.StatusCode, took, err, deadAfter)
		}
		if errs.Value() == before {
			t.Errorf("%s %s: shard_proxy_error_total did not move", call.method, call.path)
		}
		if call.method == http.MethodPost && !strings.HasPrefix(body["id"], "r") {
			t.Errorf("timed-out submit body %v, want the minted id", body)
		}
	}
}

// subscribedWriter reports the trace handler's header write, which follows
// its subscription to the job's events.
type subscribedWriter struct {
	http.ResponseWriter
	once *sync.Once
	done chan struct{}
}

func (w subscribedWriter) WriteHeader(code int) {
	w.once.Do(func() { close(w.done) })
	w.ResponseWriter.WriteHeader(code)
}

func (w subscribedWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestRouterTraceStreamsLive: an NDJSON trace passes through the router as
// the shard writes it, not when the job ends. The traced job queues behind a
// held one, so its subscription is in place before it starts; its first line
// (the running state) must reach the client while its objective is still
// blocked, and the stream must end after the terminal state line.
func TestRouterTraceStreamsLive(t *testing.T) {
	hold, gate := make(chan struct{}), make(chan struct{})
	var holdOnce, gateOnce sync.Once
	mgr, err := jobs.New(jobs.Config{MaxConcurrent: 1, Objectives: map[string]func([]float64) float64{
		"hold": func(x []float64) float64 { <-hold; return testfunc.Rosenbrock(x) },
		"gate": func(x []float64) float64 { <-gate; return testfunc.Rosenbrock(x) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	subscribed := make(chan struct{})
	var once sync.Once
	h := serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			w = subscribedWriter{w, &once, subscribed}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	rt := newRouter(t, 10*time.Second, strings.TrimPrefix(ts.URL, "http://"))
	t.Cleanup(func() { // LIFO: the jobs, and with them the stream, end before the servers close
		holdOnce.Do(func() { close(hold) })
		gateOnce.Do(func() { close(gate) })
	})

	spec := `{"objective":%q,"dim":2,"algorithm":"pc","sigma0":1,"seed":5,"tol":-1,"max_iterations":3}`
	if code, body := postJSON(t, rt.URL+"/v1/jobs", fmt.Sprintf(spec, "hold")); code != http.StatusAccepted {
		t.Fatalf("submit held job: code %d body %v", code, body)
	}
	code, body := postJSON(t, rt.URL+"/v1/jobs", fmt.Sprintf(spec, "gate"))
	if code != http.StatusAccepted {
		t.Fatalf("submit traced job: code %d body %v", code, body)
	}
	id := body["id"].(string)

	type opened struct {
		resp *http.Response
		err  error
	}
	openc := make(chan opened, 1)
	go func() {
		resp, err := http.Get(rt.URL + "/v1/jobs/" + id + "/trace")
		openc <- opened{resp, err}
	}()
	select {
	case <-subscribed:
	case <-time.After(10 * time.Second):
		t.Fatal("the trace request never reached the shard")
	}
	holdOnce.Do(func() { close(hold) }) // the traced job starts and blocks in its objective

	// Roomier than the whole stream (a running state, a few iterations, the
	// done state), so the reader exits at EOF even after a failed test.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		o := <-openc
		if o.err != nil {
			return
		}
		defer o.resp.Body.Close()
		sc := bufio.NewScanner(o.resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	decode := func(line string) jobs.Event {
		t.Helper()
		var e jobs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		return e
	}
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("trace stream ended before its first line")
		}
		if e := decode(line); e.Type != "state" || e.State != jobs.StateRunning {
			t.Fatalf("first trace line %+v, want the running state", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no trace line reached the client while the job ran: the router held the stream")
	}
	var st map[string]any
	getJSON(t, rt.URL+"/v1/jobs/"+id, &st)
	if st["state"] != "running" {
		t.Fatalf("job %s state %v after its first trace line, want still running", id, st["state"])
	}

	gateOnce.Do(func() { close(gate) })
	var last jobs.Event
	timeout := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				if last.Type != "state" || last.State != jobs.StateDone {
					t.Fatalf("trace stream ended on %+v, want the done state", last)
				}
				return
			}
			last = decode(line)
		case <-timeout:
			t.Fatal("trace stream never reached EOF after the job finished")
		}
	}
}

// TestRouterFinishedTraceKeepsLength: a trace that reaches its job's end
// before its first flush is a known-length answer (serve's loop sends it
// with a Content-Length up to 4 KiB), and the router passes that length on
// instead of flushing the answer per chunk into a chunked stream. The shard
// here records the whole trace of a job it subscribed to before the job
// ran, then sends it with its length; the trace is longer than one read of
// the router's shard connection, so the router copies it in several chunks.
func TestRouterFinishedTraceKeepsLength(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	mgr, err := jobs.New(jobs.Config{MaxConcurrent: 1, Objectives: map[string]func([]float64) float64{
		"gate": func(x []float64) float64 { <-gate; return testfunc.Rosenbrock(x) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	subscribed := make(chan struct{})
	var once sync.Once
	h := serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/trace") {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(subscribedWriter{rec, &once, subscribed}, r)
		maps.Copy(w.Header(), rec.Header())
		w.Header().Set("Content-Length", strconv.Itoa(rec.Body.Len()))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	rt := newRouter(t, 10*time.Second, strings.TrimPrefix(ts.URL, "http://"))
	t.Cleanup(func() { gateOnce.Do(func() { close(gate) }) })
	code, body := postJSON(t, rt.URL+"/v1/jobs", `{"objective":"gate","dim":2,"algorithm":"pc","sigma0":1,"seed":5,"tol":-1,"max_iterations":60}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)

	type traced struct {
		resp  *http.Response
		trace []byte
		err   error
	}
	done := make(chan traced, 1)
	go func() {
		resp, err := http.Get(rt.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			done <- traced{err: err}
			return
		}
		defer resp.Body.Close()
		trace, err := io.ReadAll(resp.Body)
		done <- traced{resp, trace, err}
	}()
	select {
	case <-subscribed:
	case <-time.After(10 * time.Second):
		t.Fatal("the trace request never reached the shard")
	}
	gateOnce.Do(func() { close(gate) })
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	resp, trace := got.resp, got.trace
	if len(trace) <= 8<<10 {
		t.Fatalf("the trace is %d bytes, too short to cross the router in more than one read", len(trace))
	}
	if resp.ContentLength != int64(len(trace)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("a known-length trace arrived with Content-Length %d and Transfer-Encoding %v for %d bytes, want its length",
			resp.ContentLength, resp.TransferEncoding, len(trace))
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	var last jobs.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Type != "state" || last.State != jobs.StateDone {
		t.Errorf("the trace ends with %q (%v), want the done state", lines[len(lines)-1], err)
	}
}

// serveH1 serves h through h1's keep-alive loop, as optd and optrouter
// do, and returns its base URL.
func serveH1(tb testing.TB, h http.Handler) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := h1.NewServer(h)
	go srv.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// BenchmarkRouterProxy prices one hop through the router: a client request
// proxied over loopback to one serve shard and relayed back. The router and
// the shard are both served by h1's keep-alive loop, as deployed.
func BenchmarkRouterProxy(b *testing.B) {
	mgr, err := jobs.New(jobs.Config{MaxConcurrent: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mgr.Close)
	shardURL := serveH1(b, serve.New(serve.Config{Mgr: mgr, DefaultSeed: 1}))
	r, err := shard.New(shard.Config{
		Shards: []shard.Shard{{Addr: strings.TrimPrefix(shardURL, "http://")}},
		Probe:  time.Hour, DeadAfter: 10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	routerURL := serveH1(b, r.Handler())
	spec := `{"objective":"rosenbrock","dim":2,"algorithm":"pc","sigma0":1,"seed":5,"tol":-1,"max_iterations":1}`
	client := &http.Client{Transport: &http.Transport{}}
	b.Cleanup(client.CloseIdleConnections)
	do := func(b *testing.B, method, path, body string, want int) {
		req, err := http.NewRequest(method, routerURL+path, strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			b.Fatalf("%s %s: code %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	resp, err := client.Post(routerURL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()

	b.Run("status", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			do(b, http.MethodGet, "/v1/jobs/"+sub.ID, "", http.StatusOK)
		}
	})
	b.Run("submit", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			do(b, http.MethodPost, "/v1/jobs", spec, http.StatusAccepted)
		}
	})
}
