package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobs"
)

// spanHeader carries the caller's span ID across an HTTP hop in traced runs.
const spanHeader = "X-Bench-Span"

// target is the system under test as one load-generator client sees it. The
// parent argument is the caller's span (0 when not tracing).
type target interface {
	submit(parent int64, spec jobs.Spec) (id string, err error)
	// wait blocks until the job is terminal and returns the number of
	// progress events it saw on the way.
	wait(parent int64, id string) (events int, err error)
	status(parent int64, id string) (jobs.Status, error)
	// result returns the serialized core.Result of a done job.
	result(parent int64, id string) ([]byte, error)
}

// httpTarget drives optd or optrouter over one keep-alive connection.
type httpTarget struct {
	base         string // "http://host:port"
	tenantScoped bool
	client       *http.Client
}

func newHTTPTarget(addr string, tenantScoped bool) *httpTarget {
	return &httpTarget{
		base:         "http://" + addr,
		tenantScoped: tenantScoped,
		client:       &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
}

// do issues one request and returns the 2xx body; any other outcome is an
// error, so refusals count as failures.
func (t *httpTarget) do(parent int64, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (t *httpTarget) getJSON(parent int64, path string, v any) error {
	resp, err := t.do(parent, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func (t *httpTarget) submit(parent int64, spec jobs.Spec) (string, error) {
	path := "/v1/jobs"
	if t.tenantScoped {
		path = "/v1/tenants/" + spec.Tenant + "/jobs"
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := t.do(parent, http.MethodPost, path, body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		return "", fmt.Errorf("submit: no job id in response: %v", err)
	}
	return out.ID, nil
}

// wait reads the NDJSON /trace stream to EOF: the server closes it when the
// job is terminal, so there is no poll interval in the measured latency.
func (t *httpTarget) wait(parent int64, id string) (int, error) {
	resp, err := t.do(parent, http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	events := 0
	r := bufio.NewReader(resp.Body)
	for {
		_, err := r.ReadSlice('\n')
		switch err {
		case nil:
			events++
		case bufio.ErrBufferFull: // a long line; keep reading it
		case io.EOF:
			return events, nil
		default:
			return events, err
		}
	}
}

func (t *httpTarget) status(parent int64, id string) (jobs.Status, error) {
	var st jobs.Status
	err := t.getJSON(parent, "/v1/jobs/"+id, &st)
	return st, err
}

func (t *httpTarget) result(parent int64, id string) ([]byte, error) {
	var out struct {
		State  jobs.State      `json:"state"`
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	if err := t.getJSON(parent, "/v1/jobs/"+id+"/result", &out); err != nil {
		return nil, err
	}
	if out.Result == nil {
		return nil, fmt.Errorf("job %s is %s without a result: %s", id, out.State, out.Error)
	}
	return out.Result, nil
}

// mgrTarget drives an in-process jobs.Manager (local_compute).
type mgrTarget struct{ mgr *jobs.Manager }

func (t mgrTarget) submit(_ int64, spec jobs.Spec) (string, error) { return t.mgr.Submit(spec) }

func (t mgrTarget) wait(_ int64, id string) (int, error) {
	ch, cancel, err := t.mgr.Subscribe(id)
	if err != nil {
		return 0, err
	}
	defer cancel()
	events := 0
	for range ch {
		events++
	}
	return events, nil
}

func (t mgrTarget) status(_ int64, id string) (jobs.Status, error) { return t.mgr.Get(id) }

func (t mgrTarget) result(_ int64, id string) ([]byte, error) {
	res, err := t.mgr.Result(id)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// jobRec is what the load generator knows about one job.
type jobRec struct {
	client, seq int
	id          string
	spec        jobs.Spec
	t0          time.Time // submit start
	fetched     time.Time // result in hand
	st          jobs.Status
	result      []byte
	events      int
	err         error
}

// ok reports whether the job reached done and its result was fetched.
func (r *jobRec) ok() bool { return r.err == nil && r.st.State == jobs.StateDone }

// loadgen is the closed loop: each client runs campaigns on its own target.
type loadgen struct {
	w       workload
	seed    int64
	targets []target // one per client
	tr      *tracer  // nil outside traced runs
	next    []int    // next job seq per client, so warm-up and window never reuse a spec
}

func newLoadgen(w workload, seed int64, targets []target, tr *tracer) *loadgen {
	return &loadgen{w: w, seed: seed, targets: targets, tr: tr, next: make([]int, len(targets))}
}

// campaign submits k jobs back to back, then collects each in order: trace to
// EOF, status (state and stamps), result.
func (l *loadgen) campaign(c int) []*jobRec {
	t := l.targets[c]
	recs := make([]*jobRec, l.w.k)
	roots := make([]int64, l.w.k)
	for i := range recs {
		r := &jobRec{client: c, seq: l.next[c]}
		l.next[c]++
		r.spec = l.w.spec(l.seed, c, r.seq)
		recs[i] = r
		roots[i] = l.tr.newID()
		sub := l.tr.newID()
		r.t0 = time.Now()
		r.id, r.err = t.submit(sub, r.spec)
		l.tr.add(span{ID: sub, Parent: roots[i], Name: "client.submit", Job: r.id}, r.t0, time.Now())
	}
	for i, r := range recs {
		if r.err == nil {
			l.collect(t, r, roots[i])
		}
		r.fetched = time.Now()
		l.tr.add(span{ID: roots[i], Name: "job", Job: r.id}, r.t0, r.fetched)
	}
	return recs
}

func (l *loadgen) collect(t target, r *jobRec, root int64) {
	step := func(name string, fn func(id int64) error) {
		if r.err != nil {
			return
		}
		id, start := l.tr.newID(), time.Now()
		r.err = fn(id)
		l.tr.add(span{ID: id, Parent: root, Name: name, Job: r.id}, start, time.Now())
	}
	step("client.trace", func(id int64) (err error) { r.events, err = t.wait(id, r.id); return })
	step("client.status", func(id int64) (err error) { r.st, err = t.status(id, r.id); return })
	step("client.result", func(id int64) (err error) { r.result, err = t.result(id, r.id); return })
	if r.err == nil && r.st.State == jobs.StateDone {
		// The server's own stamps, read from outside, are the queue and run
		// spans of the job.
		l.tr.add(span{ID: l.tr.newID(), Parent: root, Name: "jobs.queue", Job: r.id}, r.st.Created, r.st.Started)
		l.tr.add(span{ID: l.tr.newID(), Parent: root, Name: "jobs.run", Job: r.id}, r.st.Started, r.st.Finished)
	}
}

// warmupCampaigns is the warm-up's length per client: a fixed count of jobs,
// not a duration. Three campaigns make set-up long enough that setup_s is not
// decided by the jitter of a process start.
const warmupCampaigns = 3

func (l *loadgen) warmup() error {
	for _, recs := range l.parallel(func(c int) []*jobRec {
		var mine []*jobRec
		for i := 0; i < warmupCampaigns; i++ {
			mine = append(mine, l.campaign(c)...)
		}
		return mine
	}) {
		for _, r := range recs {
			if !r.ok() {
				return fmt.Errorf("warm-up job %s (client %d seq %d) is %q: %v", r.id, r.client, r.seq, r.st.State, r.err)
			}
		}
	}
	return nil
}

// run drives campaigns until the window has passed and returns every job
// attempted, in client order. Campaigns in flight at the deadline are drained
// so the system is quiet for teardown; the caller counts only jobs fetched
// inside the window.
func (l *loadgen) run(deadline time.Time) []*jobRec {
	var all []*jobRec
	for _, recs := range l.parallel(func(c int) []*jobRec {
		var mine []*jobRec
		for time.Now().Before(deadline) {
			mine = append(mine, l.campaign(c)...)
		}
		return mine
	}) {
		all = append(all, recs...)
	}
	return all
}

func (l *loadgen) parallel(fn func(c int) []*jobRec) [][]*jobRec {
	out := make([][]*jobRec, len(l.targets))
	var wg sync.WaitGroup
	for c := range l.targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = fn(c)
		}()
	}
	wg.Wait()
	return out
}
