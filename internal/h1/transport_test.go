package h1_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/h1"
	"repro/internal/shard"
)

// hopShard is a stand-in shard for the hop's fault table: a plain handler
// on a listener it can restart on the same address, counting the
// connections it accepts and the submits it answers.
type hopShard struct {
	t       *testing.T
	addr    string
	srv     *http.Server
	conns   atomic.Int64  // connections accepted, over every restart
	submits atomic.Int64  // submits answered, over every restart
	big     []byte        // GET /v1/jobs/{id}/result
	gone    chan struct{} // closed when a trace's upstream connection goes away
}

func newHopShard(t *testing.T) *hopShard {
	s := &hopShard{t: t, addr: "127.0.0.1:0", gone: make(chan struct{})}
	s.big = make([]byte, 3<<19) // 1.5 MiB
	for i := range s.big {
		s.big[i] = byte(i*7 + i>>11)
	}
	s.start()
	t.Cleanup(func() { s.srv.Close() })
	return s
}

func (s *hopShard) start() {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		switch r.PathValue("id") {
		case "closing":
			w.Header().Set("Connection", "close")
		case "overrun": // a foreign shard that writes past its answer's framing
			c, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				s.t.Error(err)
				return
			}
			io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"+
				"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst")
			c.Close()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"done"}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.submits.Add(1)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"` + r.URL.Query().Get("id") + `"}`))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(s.big) // no Content-Length: it goes out chunked
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"type":"state","state":"running"}` + "\n"))
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the router closed the connection
		close(s.gone)
	})
	s.srv = &http.Server{Handler: mux, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}}
	go s.srv.Serve(ln)
}

// restart closes the shard's listener and every connection it holds, and
// serves again on the same address.
func (s *hopShard) restart() {
	s.srv.Close()
	s.start()
}

// hopCall is one request through the router's handler, in-process.
type hopCall struct {
	code   int
	body   []byte
	reused []bool     // GotConn's Reused, per attempt
	conns  []net.Conn // GotConn's Conn, per attempt
}

func hopDo(t *testing.T, h http.Handler, method, path, body string) hopCall {
	t.Helper()
	var c hopCall
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) {
		c.reused = append(c.reused, ci.Reused)
		c.conns = append(c.conns, ci.Conn)
	}})
	var rd io.Reader // nil for no body, as a server hands a bodiless GET
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, method, path, rd))
	c.code, c.body = rec.Code, rec.Body.Bytes()
	return c
}

// router is a shard router over a Transport the test holds.
type router struct {
	*shard.Router
	tr *h1.Transport
}

// pooled reports whether c sits on the router's idle stack for addr.
func (r *router) pooled(addr string, c net.Conn) bool {
	return r.tr.Pooled(addr, c)
}

// flushRecorder announces its first Flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	once    sync.Once
	flushed chan struct{}
}

func (f *flushRecorder) Flush() {
	f.ResponseRecorder.Flush()
	f.once.Do(func() { close(f.flushed) })
}

// TestHopFaults is the router's shard hop under the faults a kept-alive
// connection meets, one row per fault. Each row gets its own shard and
// router; the router's first probe leaves one connection pooled.
func TestHopFaults(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T, s *hopShard, r *router, h http.Handler)
	}{
		{"shard restarted behind pooled connections", func(t *testing.T, s *hopShard, r *router, h http.Handler) {
			s.restart()
			// A status read meets the dead pooled connection before any
			// answer byte and is sent again on a fresh dial.
			c := hopDo(t, h, http.MethodGet, "/v1/jobs/r000001", "")
			if c.code != http.StatusOK || len(c.reused) != 2 || !c.reused[0] || c.reused[1] {
				t.Fatalf("status after a restart: code %d on connections reused %v, want 200 after a retry on a fresh dial", c.code, c.reused)
			}
			s.restart()
			// A submit is never sent twice: its minted ID would collide.
			c = hopDo(t, h, http.MethodPost, "/v1/jobs", `{}`)
			if c.code != http.StatusBadGateway || len(c.reused) != 1 || !c.reused[0] {
				t.Fatalf("submit after a restart: code %d on connections reused %v, want 502 on the one pooled connection", c.code, c.reused)
			}
			c = hopDo(t, h, http.MethodPost, "/v1/jobs", `{}`)
			if c.code != http.StatusAccepted || len(c.reused) != 1 || c.reused[0] {
				t.Fatalf("next submit: code %d on connections reused %v, want 202 on a fresh dial", c.code, c.reused)
			}
			if n := s.submits.Load(); n != 1 {
				t.Errorf("the shard answered %d submits, want 1", n)
			}
		}},
		{"Connection: close answer", func(t *testing.T, s *hopShard, r *router, h http.Handler) {
			c := hopDo(t, h, http.MethodGet, "/v1/jobs/closing", "")
			if c.code != http.StatusOK {
				t.Fatalf("code %d, want 200", c.code)
			}
			if r.pooled(s.addr, c.conns[0]) {
				t.Fatal("a connection the shard closes went back to the pool")
			}
			if c = hopDo(t, h, http.MethodGet, "/v1/jobs/r000001", ""); c.reused[0] {
				t.Fatal("the next request reused the closed connection")
			}
		}},
		{"answer followed by stray bytes", func(t *testing.T, s *hopShard, r *router, h http.Handler) {
			c := hopDo(t, h, http.MethodGet, "/v1/jobs/overrun", "")
			if c.code != http.StatusOK || string(c.body) != "hi" {
				t.Fatalf("code %d, body %q; want 200 \"hi\"", c.code, c.body)
			}
			// The connection still holds the stray answer, so it is closed:
			// the next request must not read that answer as its own.
			c = hopDo(t, h, http.MethodGet, "/v1/jobs/r000001", "")
			if c.code != http.StatusOK || string(c.body) != `{"state":"done"}` || c.reused[0] {
				t.Fatalf("next status: code %d, body %q on connections reused %v; want the shard's own 200 on a fresh dial", c.code, c.body, c.reused)
			}
		}},
		{"trace client gone mid-stream", func(t *testing.T, s *hopShard, r *router, h http.Handler) {
			var conn net.Conn
			ctx, cancel := context.WithCancel(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotConn: func(ci httptrace.GotConnInfo) { conn = ci.Conn },
			}))
			defer cancel()
			rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
			served := make(chan struct{})
			go func() {
				defer close(served)
				h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodGet, "/v1/jobs/r000001/trace", nil))
			}()
			select {
			case <-rec.flushed:
			case <-time.After(10 * time.Second):
				t.Fatal("the trace's first line never reached the client")
			}
			cancel()
			for _, ch := range []chan struct{}{served, s.gone} {
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Fatal("the proxied trace outlived its client: the upstream connection stayed open")
				}
			}
			if r.pooled(s.addr, conn) {
				t.Fatal("a connection abandoned mid-stream went back to the pool")
			}
		}},
		{"answer over 1 MiB", func(t *testing.T, s *hopShard, r *router, h http.Handler) {
			c := hopDo(t, h, http.MethodGet, "/v1/jobs/r000001/result", "")
			if c.code != http.StatusOK || !bytes.Equal(c.body, s.big) {
				t.Fatalf("code %d, %d bytes; want 200 and the shard's %d bytes unchanged", c.code, len(c.body), len(s.big))
			}
			if !r.pooled(s.addr, c.conns[0]) {
				t.Fatal("the connection that carried a whole answer was not pooled")
			}
		}},
		{"connection idle past the limit", func(t *testing.T, s *hopShard, r *router, h http.Handler) {
			defer func(d time.Duration) { *h1.HopIdleTimeout = d }(*h1.HopIdleTimeout)
			*h1.HopIdleTimeout = 100 * time.Millisecond
			hopDo(t, h, http.MethodGet, "/v1/jobs/r000001", "")
			if c := hopDo(t, h, http.MethodGet, "/v1/jobs/r000001", ""); !c.reused[0] {
				t.Fatal("a connection idle under the limit was not reused")
			}
			dials := s.conns.Load()
			time.Sleep(250 * time.Millisecond)
			c := hopDo(t, h, http.MethodGet, "/v1/jobs/r000001", "")
			if c.code != http.StatusOK || c.reused[0] || s.conns.Load() != dials+1 {
				t.Fatalf("after idling past the limit: code %d, reused %v, %d new shard connections; want 200 on one fresh dial",
					c.code, c.reused, s.conns.Load()-dials)
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := newHopShard(t)
			tr := &h1.Transport{}
			r, err := shard.New(shard.Config{Shards: []shard.Shard{{Addr: s.addr}}, Probe: time.Hour, DeadAfter: 5 * time.Second,
				Client: &http.Client{Transport: tr}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			tt.run(t, s, &router{r, tr}, r.Handler())
		})
	}
}
