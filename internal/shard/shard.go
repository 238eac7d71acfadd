// Package shard is the multi-tenant serving router: it spreads jobs across
// N optd replicas ("shards") by a deterministic hash of the job ID, proxies
// the optd REST surface, health-checks the shards, and drives coordinator
// failover — when a shard dies, a surviving shard adopts its durable job
// store via POST /v1/failover and the router re-targets that shard's hash
// range at the adopter. Placement is a pure function of the job ID and the
// (fixed) shard table, so any router replica computes the same placement
// without shared state.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Hash is 64-bit FNV-1a over the job ID — the placement function. It is
// part of the wire contract: every router replica (and any client that
// wants to predict placement) must agree on it.
func Hash(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// Pick maps a job ID to its home shard index in a table of n shards.
func Pick(id string, n int) int {
	return int(Hash(id) % uint64(n))
}

// Shard describes one optd replica in the table.
type Shard struct {
	// Addr is the replica's HTTP address ("host:port").
	Addr string
	// Dir is the replica's durable store directory, readable by the
	// surviving replicas (shared or replicated storage). Empty disables
	// failover for this shard: its jobs die with it.
	Dir string
	// Store is the store kind in Dir: "file" (default) or "wal".
	Store string
}

// Config configures a Router.
type Config struct {
	// Shards is the fixed shard table. Placement hashes into this table,
	// so its length and order are part of the deployment's identity.
	Shards []Shard
	// Probe is the health-check cadence (default 250ms).
	Probe time.Duration
	// DeadAfter is how long a shard must stay unreachable before the
	// router declares it dead and fails its jobs over (default 2s).
	DeadAfter time.Duration
	// IDPrefix namespaces router-assigned job IDs (default "r"). Routers
	// sharing shards must use distinct prefixes.
	IDPrefix string
	// Client issues proxy and probe requests; nil uses a default with a
	// per-request timeout left to the caller's context.
	Client *http.Client
	// Events, when non-nil, receives shard lifecycle events.
	Events *obs.Logger
}

// shardState is one shard's health ledger.
type shardState struct {
	alive   bool      // guarded by mu: last probe succeeded
	lastOK  time.Time // guarded by mu: last successful probe (or router start)
	dead    bool      // guarded by mu: declared dead; never revived (its store moved)
	adopter int       // guarded by mu: shard that inherited this shard's range
	adopted bool      // guarded by mu: the failover POST landed
}

// Router proxies the optd surface over a shard table.
type Router struct {
	cfg    Config
	client *http.Client

	mu    sync.Mutex
	state []shardState // guarded by mu

	seq  atomic.Uint64 // router-assigned job ID counter
	done chan struct{}
	wg   sync.WaitGroup

	mAlive    *obs.Gauge
	mFailover *obs.Counter
	mProxyErr *obs.Counter
}

// New builds a Router over the shard table and starts its health prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: empty shard table")
	}
	if cfg.Probe <= 0 {
		cfg.Probe = 250 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2 * time.Second
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "r"
	}
	now := time.Now()
	state := make([]shardState, len(cfg.Shards))
	for i := range state {
		// Optimistic start: a shard gets DeadAfter to answer its first
		// probe before it can be declared dead.
		state[i] = shardState{alive: true, lastOK: now, adopter: -1}
	}
	r := &Router{
		cfg:       cfg,
		client:    cfg.Client,
		state:     state,
		done:      make(chan struct{}),
		mAlive:    obs.Default().Gauge("shard_alive"),
		mFailover: obs.Default().Counter("shard_failover_total"),
		mProxyErr: obs.Default().Counter("shard_proxy_error_total"),
	}
	if r.client == nil {
		r.client = &http.Client{}
	}
	r.probeAll() // synchronous first sweep so Handler starts with real state
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// Close stops the prober.
func (r *Router) Close() {
	close(r.done)
	r.wg.Wait()
}

func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Probe)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll health-checks every live shard and runs the failover state
// machine for the ones that crossed DeadAfter.
func (r *Router) probeAll() {
	for i := range r.cfg.Shards {
		r.mu.Lock()
		skip := r.state[i].dead && r.state[i].adopted
		r.mu.Unlock()
		if skip {
			continue
		}
		ok := r.probe(i)
		r.update(i, ok)
	}
	r.mu.Lock()
	alive := 0
	for i := range r.state {
		if r.state[i].alive && !r.state[i].dead {
			alive++
		}
	}
	r.mu.Unlock()
	r.mAlive.Set(float64(alive))
}

// probe is one GET /healthz against shard i, abandoned after DeadAfter: a
// shard that accepts the connection and never answers is as dead as one that
// refuses it, and must not stall the probing of the shards after it.
func (r *Router) probe(i int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DeadAfter)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+r.cfg.Shards[i].Addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// update folds one probe result into the state machine. A shard that has
// been unreachable for DeadAfter is declared dead: the next alive shard
// (scanning up from its index) inherits its hash range, and — if the dead
// shard had a durable store — adopts its jobs via /v1/failover. Adoption
// retries on every probe tick until it lands; routing retargets
// immediately so lookups go to the adopter even while its recovery is in
// flight.
func (r *Router) update(i int, ok bool) {
	now := time.Now()
	r.mu.Lock()
	st := &r.state[i]
	if ok && !st.dead {
		st.alive = true
		st.lastOK = now
		r.mu.Unlock()
		return
	}
	st.alive = st.alive && ok
	if !st.dead && now.Sub(st.lastOK) >= r.cfg.DeadAfter {
		st.dead = true
		st.adopter = r.nextAliveLocked(i)
		st.adopted = st.adopter < 0 || r.cfg.Shards[i].Dir == "" // nothing to adopt
		r.mu.Unlock()
		r.cfg.Events.Event("shard_dead", "shard", i, "addr", r.cfg.Shards[i].Addr, "adopter", st.adopter)
		r.mFailover.Inc()
	} else {
		r.mu.Unlock()
	}
	r.mu.Lock()
	needAdopt := st.dead && !st.adopted
	adopter := st.adopter
	r.mu.Unlock()
	if needAdopt {
		r.adopt(i, adopter)
	}
}

// nextAliveLocked finds the shard that inherits i's range: the first
// non-dead shard scanning up from i+1. -1 when every shard is dead.
func (r *Router) nextAliveLocked(i int) int {
	for off := 1; off < len(r.state); off++ {
		j := (i + off) % len(r.state)
		if !r.state[j].dead {
			return j
		}
	}
	return -1
}

// adopt asks shard `to` to recover shard `from`'s durable store, abandoned
// after DeadAfter like a probe: it runs on the probe path, so an adopter that
// accepts the request and never answers must not stall the probing of every
// shard. A failed attempt is retried on the next probe tick. Retrying is safe
// because the adopter opens a store at most once: a retry that reaches it
// while the first adoption is still running waits for that adoption.
func (r *Router) adopt(from, to int) {
	body, _ := json.Marshal(map[string]string{
		"dir":   r.cfg.Shards[from].Dir,
		"store": r.cfg.Shards[from].Store,
	})
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DeadAfter)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+r.cfg.Shards[to].Addr+"/v1/failover", bytes.NewReader(body))
	if err != nil {
		r.cfg.Events.Event("shard_adopt_error", "from", from, "to", to, "err", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		r.cfg.Events.Event("shard_adopt_error", "from", from, "to", to, "err", err)
		return
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.cfg.Events.Event("shard_adopt_error", "from", from, "to", to, "code", resp.StatusCode, "body", string(out))
		return
	}
	r.mu.Lock()
	r.state[from].adopted = true
	r.mu.Unlock()
	r.cfg.Events.Event("shard_adopt", "from", from, "to", to, "resp", string(out))
}

// resolve maps a home shard index to the shard currently serving its hash
// range, chasing failover redirects. -1 when the whole chain is dead.
func (r *Router) resolve(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for hops := 0; hops <= len(r.state); hops++ {
		if !r.state[i].dead {
			return i
		}
		if r.state[i].adopter < 0 {
			return -1
		}
		i = r.state[i].adopter
	}
	return -1
}

// Place reports the shard index currently serving id — the placement
// function composed with the failover redirect chain.
func (r *Router) Place(id string) int {
	return r.resolve(Pick(id, len(r.cfg.Shards)))
}

// NextID mints a router-assigned job ID. IDs are dense (<prefix><seq>) and
// their shard placement is fixed at mint time by Hash.
func (r *Router) NextID() string {
	return fmt.Sprintf("%s%06d", r.cfg.IDPrefix, r.seq.Add(1))
}

// ShardStatus is one row of the router's /healthz shard table.
type ShardStatus struct {
	Addr    string `json:"addr"`
	Alive   bool   `json:"alive"`
	Dead    bool   `json:"dead"`
	Adopter int    `json:"adopter,omitempty"`
}

// Status snapshots the shard table.
func (r *Router) Status() []ShardStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardStatus, len(r.state))
	for i := range r.state {
		out[i] = ShardStatus{
			Addr:    r.cfg.Shards[i].Addr,
			Alive:   r.state[i].alive && !r.state[i].dead,
			Dead:    r.state[i].dead,
			Adopter: r.state[i].adopter,
		}
	}
	return out
}

// Handler builds the router's HTTP surface: the optd REST API, proxied.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.health)
	mux.HandleFunc("GET /strategies", r.anyAlive)
	mux.HandleFunc("POST /v1/jobs", r.submit)
	mux.HandleFunc("GET /v1/jobs", r.list)
	mux.HandleFunc("GET /v1/jobs/{id}", r.byID)
	mux.HandleFunc("GET /v1/jobs/{id}/result", r.byID)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", r.byID)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", r.byID)
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.byID)
	mux.HandleFunc("GET /v1/tenants", r.tenants)
	mux.HandleFunc("POST /v1/tenants/{tenant}/jobs", r.submit)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs", r.list)
	obs.Default().RegisterDebug(mux)
	mux.HandleFunc("/healthz", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/strategies", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/jobs", serve.MethodNotAllowed("GET", "POST"))
	mux.HandleFunc("/v1/jobs/{id}", serve.MethodNotAllowed("GET", "DELETE"))
	mux.HandleFunc("/v1/jobs/{id}/result", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/jobs/{id}/trace", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/jobs/{id}/cancel", serve.MethodNotAllowed("POST"))
	mux.HandleFunc("/v1/tenants", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/v1/tenants/{tenant}/jobs", serve.MethodNotAllowed("GET", "POST"))
	mux.HandleFunc("/metrics", serve.MethodNotAllowed("GET"))
	return mux
}

func (r *Router) health(w http.ResponseWriter, req *http.Request) {
	shards := r.Status()
	ok := false
	for _, s := range shards {
		if s.Alive {
			ok = true
			break
		}
	}
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{"ok": ok, "role": "router", "shards": shards})
}

// anyAlive proxies the request verbatim to the first alive shard — for
// endpoints whose answer is shard-independent (/strategies).
func (r *Router) anyAlive(w http.ResponseWriter, req *http.Request) {
	for i := range r.cfg.Shards {
		r.mu.Lock()
		up := r.state[i].alive && !r.state[i].dead
		r.mu.Unlock()
		if up {
			r.proxy(w, req, i, req.URL.RequestURI())
			return
		}
	}
	serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no alive shards"})
}

// submit mints the job ID, hashes it to its home shard and forwards the
// spec there via ?id= — so the placement of every job the router admits is
// reconstructible from the ID alone.
func (r *Router) submit(w http.ResponseWriter, req *http.Request) {
	id := r.NextID()
	target := r.Place(id)
	if target < 0 {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no alive shards"})
		return
	}
	path := "/v1/jobs"
	if tenant := req.PathValue("tenant"); tenant != "" {
		path = "/v1/tenants/" + tenant + "/jobs"
	}
	r.proxy(w, req, target, path+"?id="+id)
}

// byID routes a job-scoped request to the shard serving the ID's range.
// IDs the router did not mint (direct shard submissions) still route
// correctly: placement is the hash, not the mint.
func (r *Router) byID(w http.ResponseWriter, req *http.Request) {
	target := r.Place(req.PathValue("id"))
	if target < 0 {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no alive shards"})
		return
	}
	r.proxy(w, req, target, req.URL.RequestURI())
}

// fetchShard fetches path from shard i into out for a cross-shard merge,
// chasing the failover chain once if the shard errors mid-merge: a shard
// can die between serving() and the fetch, and the healthy shards' answers
// must not be thrown away because of it. It reports whether out was filled.
// When the failover chain lands on a shard already in targets (its adopter
// is part of the same merge), the fetch is not repeated — the adopter's own
// page covers (or will cover, once adoption lands) the dead shard's jobs.
func (r *Router) fetchShard(ctx context.Context, targets []int, i int, path string, out any) bool {
	if r.getJSON(ctx, i, path, out) == nil {
		return true
	}
	j := r.resolve(i)
	if j < 0 || j == i {
		return false
	}
	for _, t := range targets {
		if t == j {
			return false
		}
	}
	return r.getJSON(ctx, j, path, out) == nil
}

// list merges the job lists of every serving shard, sorted by ID. If a
// shard dies mid-merge and its failover chain cannot answer either, the
// healthy shards' merge is still returned, wrapped with a "degraded" field
// naming the unreachable shards — partial answers beat a blanket 502.
func (r *Router) list(w http.ResponseWriter, req *http.Request) {
	var merged []jobs.Status
	var degraded []string
	targets := r.serving()
	for _, i := range targets {
		var page []jobs.Status
		if !r.fetchShard(req.Context(), targets, i, req.URL.RequestURI(), &page) {
			degraded = append(degraded, r.cfg.Shards[i].Addr)
			continue
		}
		merged = append(merged, page...)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].ID < merged[b].ID })
	if merged == nil {
		merged = []jobs.Status{}
	}
	if len(degraded) > 0 {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"jobs": merged, "degraded": degraded})
		return
	}
	serve.WriteJSON(w, http.StatusOK, merged)
}

// tenants merges per-tenant accounting across shards: counters sum; the
// quota shown is the first shard's (the fleet is deployed homogeneous).
// Like list, a shard unreachable through its failover chain degrades the
// merge (reported in "degraded") instead of failing it.
func (r *Router) tenants(w http.ResponseWriter, req *http.Request) {
	sum := map[string]*jobs.TenantStats{}
	var degraded []string
	targets := r.serving()
	for _, i := range targets {
		var page struct {
			Tenants []jobs.TenantStats `json:"tenants"`
		}
		if !r.fetchShard(req.Context(), targets, i, "/v1/tenants", &page) {
			degraded = append(degraded, r.cfg.Shards[i].Addr)
			continue
		}
		for _, ts := range page.Tenants {
			acc, ok := sum[ts.Tenant]
			if !ok {
				c := ts
				sum[ts.Tenant] = &c
				continue
			}
			acc.Queued += ts.Queued
			acc.Running += ts.Running
			acc.Submitted += ts.Submitted
			acc.Rejected += ts.Rejected
		}
	}
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]jobs.TenantStats, 0, len(names))
	for _, name := range names {
		out = append(out, *sum[name])
	}
	if len(degraded) > 0 {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"tenants": out, "degraded": degraded})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

// serving lists the shard indexes currently serving a hash range (alive,
// not failed over).
func (r *Router) serving() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for i := range r.state {
		if !r.state[i].dead {
			out = append(out, i)
		}
	}
	return out
}

// getJSON is a GET against shard i decoded into out, under the incoming
// request's context and abandoned after DeadAfter, like a probe: a shard
// that accepts the connection and never answers lands in the merge's
// degraded list instead of holding the merge until the prober declares it
// dead.
func (r *Router) getJSON(ctx context.Context, i int, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.DeadAfter)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+r.cfg.Shards[i].Addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.mProxyErr.Inc()
		return fmt.Errorf("shard %d (%s): %w", i, r.cfg.Shards[i].Addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.mProxyErr.Inc()
		return fmt.Errorf("shard %d (%s): HTTP %d", i, r.cfg.Shards[i].Addr, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// proxy re-issues the request against shard i at path (which carries the
// query) and streams the response back, flushing per chunk so NDJSON
// traces pass through live.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, i int, path string) {
	out, err := http.NewRequestWithContext(req.Context(), req.Method, "http://"+r.cfg.Shards[i].Addr+path, req.Body)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		r.mProxyErr.Inc()
		serve.WriteJSON(w, http.StatusBadGateway, map[string]string{"error": fmt.Sprintf("shard %d (%s): %v", i, r.cfg.Shards[i].Addr, err)})
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}
