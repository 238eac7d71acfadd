package h1

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startH1 serves h through the keep-alive loop on a loopback port. logf,
// when non-nil, receives what the server logs. Cleanup shuts the server
// down and waits for every connection goroutine to exit.
func startH1(t testing.TB, h http.Handler, logf func(string, ...any)) (*Server, string) {
	t.Helper()
	srv := NewServer(h)
	srv.logf = func(string, ...any) {}
	if logf != nil {
		srv.logf = logf
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// startNetHTTP serves h through net/http.Server, the reference.
func startNetHTTP(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// conformanceHandler is the handler both servers run in TestH1Conformance.
func conformanceHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/known", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello\n")
	})
	// A request body replaces "hello", so a body of another length
	// answers shorter or longer than the declared five bytes.
	mux.HandleFunc("/declared", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "5")
		if r.Body == http.NoBody {
			io.WriteString(w, "hello")
			return
		}
		io.Copy(w, r.Body)
	})
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "body left unread\n")
	})
	mux.HandleFunc("/ndjson", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := range 3 {
			fmt.Fprintf(w, "{\"n\":%d}\n", i)
			w.(http.Flusher).Flush()
		}
	})
	mux.HandleFunc("/size/{n}", func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.PathValue("n"))
		w.Write(bytes.Repeat([]byte("x"), n))
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "never sent")
		panic("handler panic")
	})
	return mux
}

// answer is one response as a client reads it; Date is left out of header
// (its value is the clock) and only its presence is kept.
type answer struct {
	proto  string
	status int
	header http.Header
	dated  bool
	te     []string
	length int64
	body   string
}

// exchange is what one connection carried: the answers to what was sent,
// and whether it still served a request afterwards.
type exchange struct {
	answers []answer
	open    bool
}

// roundTrip sends raw on a fresh connection to addr, reads answers until
// finals final ones (1xx do not count) or the connection ends, then sends a
// probe request to see whether the connection stayed open.
func roundTrip(t *testing.T, addr, raw string, finals int) exchange {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatalf("write request: %v", err)
	}
	var method *http.Request
	if strings.HasPrefix(raw, "HEAD ") {
		method = &http.Request{Method: http.MethodHead}
	}
	br := bufio.NewReader(c)
	var ex exchange
	for n := 0; n < finals; {
		resp, err := http.ReadResponse(br, method)
		if err != nil {
			return ex // the connection ended: no probe
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read answer body: %v", err)
		}
		_, dated := resp.Header["Date"]
		resp.Header.Del("Date")
		ex.answers = append(ex.answers, answer{resp.Proto, resp.StatusCode, resp.Header, dated, resp.TransferEncoding, resp.ContentLength, string(body)})
		if resp.StatusCode >= 200 {
			n++
		}
	}
	if _, err := io.WriteString(c, "GET /known HTTP/1.1\r\nHost: probe\r\n\r\n"); err != nil {
		return ex
	}
	resp, err := http.ReadResponse(br, nil)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		ex.open = err == nil && resp.StatusCode == http.StatusOK
	}
	return ex
}

// conformanceRows is TestH1Conformance's table: the raw bytes a row sends,
// how many final answers it reads, and the differences from net/http it
// allows. FuzzH1Server's seed corpus is these rows.
var conformanceRows = []struct {
	name   string
	raw    string
	finals int
	loop   func(ex *exchange) // the allowed differences; nil = none
}{
	{"known-length GET", "GET /known HTTP/1.1\r\nHost: x\r\n\r\n", 1, nil},
	{"declared Content-Length", "GET /declared HTTP/1.1\r\nHost: x\r\n\r\n", 1, nil},
	{"POST with a body", "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 1, nil},
	{"chunked request body", "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n", 1, nil},
	{"Expect: 100-continue", "POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", 1, nil},
	{"unknown Expect", "GET /known HTTP/1.1\r\nHost: x\r\nExpect: teapot\r\n\r\n", 1, nil},
	{"HEAD", "HEAD /known HTTP/1.1\r\nHost: x\r\n\r\n", 1, nil},
	// net/http writes no Connection header to an HTTP/1.0 client; the
	// loop says it closes.
	{"HTTP/1.0", "GET /known HTTP/1.0\r\n\r\n", 1, func(ex *exchange) {
		ex.answers[0].header.Set("Connection", "close")
	}},
	{"HTTP/1.0 keep-alive", "GET /known HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 1, nil},
	{"Connection: close", "GET /known HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 1, nil},
	{"two pipelined requests", "GET /known HTTP/1.1\r\nHost: x\r\n\r\nPOST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc", 2, nil},
	{"unread small body is drained", "POST /ignore HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 1, nil},
	{"unread body past the drain limit closes", "POST /ignore HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(len(big)) + "\r\n\r\n" + big, 1, nil},
	{"malformed request line", "GARBAGE\r\n\r\n", 1, nil},
	{"header over 1 MiB", "GET /known HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 1<<20+8<<10) + "\r\n\r\n", 1, nil},
	{"flushed NDJSON stream", "GET /ndjson HTTP/1.1\r\nHost: x\r\n\r\n", 1, nil},
	// net/http holds back 2,048 bytes before it chunks, the loop 4 KiB:
	// a 3,000-byte answer keeps its length here.
	{"unflushed body between 2 and 4 KiB", "GET /size/3000 HTTP/1.1\r\nHost: x\r\n\r\n", 1, func(ex *exchange) {
		a := &ex.answers[0]
		a.te, a.length = nil, 3000
		a.header.Set("Content-Length", "3000")
	}},
	{"unflushed body over 4 KiB", "GET /size/5000 HTTP/1.1\r\nHost: x\r\n\r\n", 1, nil},
	{"handler panic", "GET /panic HTTP/1.1\r\nHost: x\r\n\r\n", 1, nil},
}

// big is the body of the row whose unread body passes the drain limit.
var big = strings.Repeat("b", 300<<10)

// TestH1Conformance is the differential table: each row sends the same raw
// bytes to net/http.Server and to the keep-alive loop, both running
// conformanceHandler, and compares status, headers but Date, body and
// whether the connection stays open. A row's loop function states the
// differences allowed on that row, applied to net/http's exchange.
func TestH1Conformance(t *testing.T) {
	tests := conformanceRows
	ref := startNetHTTP(t, conformanceHandler())
	_, loop := startH1(t, conformanceHandler(), nil)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want := roundTrip(t, ref, tt.raw, tt.finals)
			if tt.loop != nil {
				tt.loop(&want)
			}
			if got := roundTrip(t, loop, tt.raw, tt.finals); !reflect.DeepEqual(got, want) {
				t.Errorf("the loop answered\n%+v\nwant (net/http with this row's allowed differences)\n%+v", got, want)
			}
		})
	}
}

// readLine reads one line of a chunked answer body.
func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read answer line: %v", err)
	}
	return line
}

// shorten sets a timeout to 150 ms for the test. Call it before startH1: the
// old value comes back after the server's cleanup, once no connection reads
// it.
func shorten(t *testing.T, timeout *time.Duration) {
	old := *timeout
	*timeout = 150 * time.Millisecond
	t.Cleanup(func() { *timeout = old })
}

// waitClosed reads from c until the server closes it and reports how long
// that took; any answer byte fails the test.
func waitClosed(t *testing.T, c net.Conn) time.Duration {
	t.Helper()
	start := time.Now()
	c.SetReadDeadline(start.Add(5 * time.Second))
	n, err := c.Read(make([]byte, 1))
	if n > 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read %d bytes (%v), want the server to close the connection", n, err)
	}
	return time.Since(start)
}

// TestH1Faults is the loop's fault table: clients that go away, stall or
// sit idle, and a Shutdown with requests in flight.
func TestH1Faults(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"client gone mid-stream cancels the context", func(t *testing.T) {
			canceled := make(chan bool, 1)
			_, addr := startH1(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "first\n")
				w.(http.Flusher).Flush()
				select {
				case <-r.Context().Done():
					canceled <- true
				case <-time.After(5 * time.Second):
					canceled <- false
				}
			}), nil)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(c, "GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
			resp, err := http.ReadResponse(bufio.NewReader(c), nil)
			if err != nil {
				t.Fatal(err)
			}
			if line := readLine(t, bufio.NewReader(resp.Body)); line != "first\n" {
				t.Fatalf("first line %q", line)
			}
			c.Close()
			if !<-canceled {
				t.Error("the handler's context was not canceled after its client went away")
			}
		}},
		{"flush before the body is consumed", func(t *testing.T) {
			// The detector must not read the connection while the body is
			// still to come: the handler flushes, then reads the body the
			// client sends only once it saw that flush.
			_, addr := startH1(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "ready\n")
				w.(http.Flusher).Flush()
				b, err := io.ReadAll(r.Body)
				if err != nil {
					t.Errorf("read body: %v", err)
				}
				w.Write(b)
				w.(http.Flusher).Flush()
			}), nil)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(c)
			// Ten rounds on one connection: a detector armed too early
			// reads the body before the handler does in some of them.
			for round := range 10 {
				io.WriteString(c, "POST /late HTTP/1.1\r\nHost: x\r\nContent-Length: 6\r\n\r\n")
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				body := bufio.NewReader(resp.Body)
				if line := readLine(t, body); line != "ready\n" {
					t.Fatalf("round %d: first line %q", round, line)
				}
				io.WriteString(c, "hello\n")
				if line := readLine(t, body); line != "hello\n" {
					t.Fatalf("round %d: echoed line %q, want the body", round, line)
				}
				if _, err := io.Copy(io.Discard, body); err != nil {
					t.Fatalf("round %d: end of answer: %v", round, err)
				}
			}
		}},
		{"half-closed client still gets the whole answer", func(t *testing.T) {
			// A client may shut its sending side once the request is out.
			// The detector reads that as the client gone and cancels the
			// context, but what the handler wrote still leaves, ended.
			_, addr := startH1(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "first\n")
				w.(http.Flusher).Flush()
				<-r.Context().Done()
				io.WriteString(w, "last\n")
			}), nil)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			io.WriteString(c, "GET /half HTTP/1.1\r\nHost: x\r\n\r\n")
			c.(*net.TCPConn).CloseWrite()
			resp, err := http.ReadResponse(bufio.NewReader(c), nil)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || string(body) != "first\nlast\n" {
				t.Errorf("answer %q (%v), want both lines and the end of the body", body, err)
			}
		}},
		{"idle connection closed at the idle limit", func(t *testing.T) {
			shorten(t, &idleTimeout)
			_, addr := startH1(t, conformanceHandler(), nil)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			io.WriteString(c, "GET /known HTTP/1.1\r\nHost: x\r\n\r\n")
			br := bufio.NewReader(c)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			if took := waitClosed(t, c); took < 100*time.Millisecond {
				t.Errorf("an idle connection was closed after %v, before the %v limit", took, idleTimeout)
			}
		}},
		{"slow header closed at the header limit", func(t *testing.T) {
			shorten(t, &readHeaderTimeout)
			_, addr := startH1(t, conformanceHandler(), nil)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			io.WriteString(c, "GET /known HTTP/1.1\r\nHost: x\r\n")
			if took := waitClosed(t, c); took < 100*time.Millisecond {
				t.Errorf("a slow header was cut after %v, before the %v limit", took, readHeaderTimeout)
			}
		}},
		{"a panic is logged", func(t *testing.T) {
			var mu sync.Mutex
			var logged []string
			_, addr := startH1(t, conformanceHandler(), func(format string, args ...any) {
				mu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				mu.Unlock()
			})
			if ex := roundTrip(t, addr, "GET /panic HTTP/1.1\r\nHost: x\r\n\r\n", 1); len(ex.answers) != 0 || ex.open {
				t.Fatalf("a panicking handler's connection carried %+v", ex)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(logged) != 1 || !strings.Contains(logged[0], "handler panic") {
				t.Errorf("logged %q, want the panic", logged)
			}
		}},
		{"Shutdown waits for a request in flight and closes idle connections", func(t *testing.T) {
			entered, gate := make(chan struct{}), make(chan struct{})
			mux := http.NewServeMux()
			mux.Handle("/", conformanceHandler())
			mux.HandleFunc("/hold", func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				<-gate
				io.WriteString(w, "held\n")
			})
			srv, addr := startH1(t, mux, nil)
			idle, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Close()
			if ex := roundTrip(t, addr, "GET /known HTTP/1.1\r\nHost: x\r\n\r\n", 1); !ex.open {
				t.Fatal("no keep-alive before Shutdown")
			}
			io.WriteString(idle, "GET /known HTTP/1.1\r\nHost: x\r\n\r\n")
			idleBr := bufio.NewReader(idle)
			resp, err := http.ReadResponse(idleBr, nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)

			busy, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer busy.Close()
			io.WriteString(busy, "GET /hold HTTP/1.1\r\nHost: x\r\n\r\n")
			<-entered
			shut := make(chan error, 1)
			go func() { shut <- srv.Shutdown(context.Background()) }()
			waitClosed(t, idle)
			select {
			case err := <-shut:
				t.Fatalf("Shutdown returned %v with a request in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(gate)
			busy.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err = http.ReadResponse(bufio.NewReader(busy), nil)
			if err != nil {
				t.Fatalf("the request in flight got no answer: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || string(body) != "held\n" || !resp.Close {
				t.Errorf("answer in flight %q (%v), close %v; want the whole body and Connection: close", body, err, resp.Close)
			}
			if err := <-shut; err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}},
		{"Shutdown closes what is left when its context ends", func(t *testing.T) {
			entered, gate := make(chan struct{}), make(chan struct{})
			defer close(gate)
			srv, addr := startH1(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				<-gate
			}), nil)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			io.WriteString(c, "GET /hold HTTP/1.1\r\nHost: x\r\n\r\n")
			<-entered
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
				t.Errorf("Shutdown = %v, want context.DeadlineExceeded", err)
			}
			waitClosed(t, c)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, tt.run)
	}
}

// TestHopIdleBelowServerIdle: a Transport stops reusing an idle connection
// before a Server closes it, so a client never writes into a connection the
// server is closing under it.
func TestHopIdleBelowServerIdle(t *testing.T) {
	if hopIdleTimeout >= idleTimeout {
		t.Errorf("a Transport reuses connections idle up to %v, a Server closes them at %v", hopIdleTimeout, idleTimeout)
	}
}
