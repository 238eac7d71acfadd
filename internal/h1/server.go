// Package h1 is the HTTP/1.1 that optd, optrouter and optworker speak: the
// keep-alive Server they serve their handlers from, the Transport the router
// reaches its shards through, and the JSON reply helpers both servers use.
// It imports only the standard library.
package h1

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// head once its first byte arrived (on a new connection, from accept), so
// connections that never finish a request cannot pile up. A variable so
// tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// The idle limits of the two ends of a kept-alive connection. The Server
// closes a connection left idle idleTimeout between requests; a Transport
// stops reusing a pooled connection idle hopIdleTimeout. The Transport's
// limit stays below the Server's, so the client closes its side first and
// never writes into a connection the server is closing under it
// (TestHopIdleBelowServerIdle). Variables so tests can shorten them.
var (
	idleTimeout    = 2 * time.Minute
	hopIdleTimeout = 90 * time.Second
)

const (
	// maxHeadBytes bounds a request line and its headers: net/http's default
	// limit and the 4 KiB of slack it allows. A longer head gets a 431.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4096
	// respBufSize is how much of a response is held back: a handler that
	// returns within it gets a Content-Length and one write.
	respBufSize = 4 << 10
	// maxDrainBytes is how much of a body its handler left unread is read
	// and discarded to reach the next request; past it the connection is
	// closed.
	maxDrainBytes = 256 << 10
	// lingerTime is how long a connection closed with request bytes unread
	// keeps reading and discarding them first, so the client reads the
	// answer before a reset.
	lingerTime = 500 * time.Millisecond
)

// hasToken reports whether token is one of v's words split at spaces, tabs
// and commas, as net/http's server reads Connection and Expect.
func hasToken(v, token string) bool {
	return slices.ContainsFunc(strings.FieldsFunc(v, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' }),
		func(w string) bool { return strings.EqualFold(w, token) })
}

// aLongTimeAgo is the deadline that aborts a blocked read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// Connection states: waiting for a request's first byte, serving one, or
// closed by Shutdown while it waited.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// Server serves HTTP/1.1 keep-alive connections to a handler, one goroutine
// per connection. It reads each request with http.ReadRequest and writes the
// answer itself: an answer that fits respBufSize leaves in one write with a
// Content-Length, a longer or flushed one goes out chunked. No goroutine is
// started per request; only an answer that was flushed, once the request
// body is consumed, starts a close detector that reads the connection in the
// background and cancels the request's context when the client goes away.
type Server struct {
	handler http.Handler
	logf    func(format string, args ...any)

	closing atomic.Bool
	mu      sync.Mutex
	ln      net.Listener       // guarded by mu
	conns   map[*conn]struct{} // guarded by mu
	drained chan struct{}      // guarded by mu: closed once Shutdown ran and conns is empty
}

// NewServer returns a Server for h.
func NewServer(h http.Handler) *Server {
	return &Server{handler: h, logf: log.Printf, conns: make(map[*conn]struct{})}
}

// Serve accepts connections on ln until Shutdown, after which it returns
// http.ErrServerClosed. It is called once per Server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.closing.Load() {
		ln.Close()
		return http.ErrServerClosed
	}
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			// Out of file descriptors and the like: back off as net/http does.
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := &conn{srv: s, rwc: rwc, remote: rwc.RemoteAddr().String()}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			rwc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown closes the listener and the idle connections, waits for the
// requests in flight to finish, and returns nil. If ctx ends first it closes
// the remaining connections and returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.rwc.Close()
		}
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
		if len(s.conns) == 0 {
			close(s.drained)
		}
	}
	drained := s.drained
	s.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.rwc.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// conn is one client connection and the state its requests reuse.
type conn struct {
	srv    *Server
	rwc    net.Conn
	remote string
	state  atomic.Int32
	lr     io.LimitedReader // under br: bounds a request's head
	br     *bufio.Reader
	bw     *bufio.Writer
	w      response
	body   body
	post   bool // the last request was a POST: net/http skips CR and LF after one

	// The close detector: watching is closed when it has exited, and gone
	// (written before that) reports that the client went away.
	watching chan struct{}
	gone     bool
}

func (c *conn) serve() {
	defer c.close()
	c.lr.R = c.rwc
	c.br = bufio.NewReaderSize(&c.lr, 4<<10)
	c.bw = bufio.NewWriterSize(c.rwc, 8<<10) // a head and a full respBufSize body
	deadline := time.Now().Add(readHeaderTimeout)
	for first := true; ; first = false {
		c.lr.N = maxHeadBytes
		if c.br.Buffered() == 0 {
			c.rwc.SetReadDeadline(deadline)
			if _, err := c.br.Peek(1); err != nil {
				return
			}
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		if !first {
			c.rwc.SetReadDeadline(time.Now().Add(readHeaderTimeout))
		}
		if !c.serveRequest() {
			return
		}
		c.state.Store(connIdle)
		if c.srv.closing.Load() {
			return
		}
		deadline = time.Now().Add(idleTimeout)
	}
}

func (c *conn) close() {
	c.rwc.Close()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	if s.drained != nil && len(s.conns) == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

// linger reads and discards what the client still sends, until it closes or
// lingerTime passes, so closing the connection does not reset it before the
// client read the answer.
func (c *conn) linger() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.rwc.SetReadDeadline(time.Now().Add(lingerTime))
	io.Copy(io.Discard, c.rwc)
}

// fail answers a request that could not be read, as net/http does; the
// connection closes after it.
func (c *conn) fail(status, body string) {
	c.rwc.Write([]byte("HTTP/1.1 " + status + "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n" + body))
}

// serveRequest reads one request, runs the handler and finishes its answer.
// It reports whether the connection may carry another request.
func (c *conn) serveRequest() bool {
	if c.post {
		peek, _ := c.br.Peek(4)
		c.br.Discard(len(peek) - len(bytes.TrimLeft(peek, "\r\n")))
	}
	req, err := http.ReadRequest(c.br)
	if err != nil {
		var ne *net.OpError // not net.Error: a *url.Error is one too
		switch {
		case c.lr.N <= 0:
			c.fail("431 Request Header Fields Too Large", "431 Request Header Fields Too Large")
			c.linger()
		case errors.Is(err, io.EOF) || errors.As(err, &ne):
			// The client went away or timed out: nobody to answer.
		case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
			c.fail("501 Not Implemented", "Unsupported transfer encoding")
		default:
			c.fail("400 Bad Request", "400 Bad Request")
		}
		return false
	}
	// net/http's server checks past http.ReadRequest, the first failing in
	// its order wins. http.ReadRequest has dropped the Host header, so
	// req.Host stands for it.
	bad := ""
	for k := range req.Header { // http.ReadRequest refuses control bytes, not spaces
		if strings.Contains(k, " ") {
			bad = "400 Bad Request: invalid header name"
		}
	}
	if req.ProtoMajor != 1 && !(req.ProtoMajor == 2 && req.ProtoMinor == 0 && req.Method == "PRI" && req.RequestURI == "*") {
		bad = "505 HTTP Version Not Supported: unsupported protocol version"
	} else if req.ProtoAtLeast(1, 1) && req.Host == "" && req.Method != "CONNECT" {
		bad = "400 Bad Request: missing required Host header"
	} else if strings.Trim(req.Host, "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!$%&'()*+,-.:;=[]_~") != "" {
		bad = "400 Bad Request: malformed Host header"
	}
	if bad != "" {
		c.fail(bad, bad)
		return false
	}
	c.post = req.Method == http.MethodPost
	c.lr.N = math.MaxInt64
	c.rwc.SetReadDeadline(time.Time{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req = req.WithContext(ctx)
	req.RemoteAddr = c.remote
	w, b := &c.w, &c.body
	w.reset(c, req, cancel)
	*b = body{c: c, eof: req.Body == http.NoBody}
	if !b.eof {
		b.rc, req.Body = req.Body, b
	}
	if exp := req.Header.Get("Expect"); exp != "" {
		if !hasToken(exp, "100-continue") {
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
			w.finish()
			return false
		}
		b.expect = req.ProtoAtLeast(1, 1) && !b.eof
	}
	if !c.run(w, req) {
		return false
	}
	cancel()
	gone := c.unwatch()
	if !b.eof {
		b.drain()
	}
	keep := w.finish()
	if b.unread {
		c.linger()
		return false
	}
	return keep && !gone
}

// run calls the handler. A panic is logged (unless it is
// http.ErrAbortHandler) and closes the connection.
func (c *conn) run(w *response, req *http.Request) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				c.srv.logf("serve: panic serving %s: %v\n%s", c.remote, v, buf)
			}
			w.cancel()
			c.unwatch()
		}
	}()
	c.srv.handler.ServeHTTP(w, req)
	return true
}

// watch starts the close detector, which cancels the request's context when
// the client closes the connection. It reads through br, so it may only run
// once the request body is consumed; a byte of a pipelined request stays
// buffered for the next read.
func (c *conn) watch(cancel context.CancelFunc) {
	done := make(chan struct{})
	c.watching, c.gone = done, false
	go func() {
		defer close(done)
		if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			c.gone = true
			cancel()
		}
	}()
}

// unwatch stops the close detector, if it runs, with a read deadline in the
// past, and reports whether it saw the client go.
func (c *conn) unwatch() bool {
	if c.watching == nil {
		return false
	}
	c.rwc.SetReadDeadline(aLongTimeAgo)
	<-c.watching
	c.watching = nil
	c.rwc.SetReadDeadline(time.Time{})
	return c.gone
}

// body is a request body as the handler sees it: it answers Expect:
// 100-continue on the first read and notes EOF. Close does not drain it;
// what the handler leaves unread is drained after it returns.
type body struct {
	c      *conn
	rc     io.ReadCloser
	expect bool // the client waits for 100 Continue before it sends the body
	eof    bool
	closed bool
	unread bool // bytes are left on the connection: it must close
}

func (b *body) Read(p []byte) (int, error) {
	if b.eof {
		return 0, io.EOF
	}
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.expect {
		b.expect = false
		if !b.c.w.committed {
			b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
			b.c.bw.Flush()
		}
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *body) Close() error {
	b.closed = true
	return nil
}

// drain discards what the handler left of the body, up to maxDrainBytes. A
// client still waiting for 100 Continue never sent it, so nothing is read.
func (b *body) drain() {
	if b.expect || b.closed {
		b.unread = true
		return
	}
	n, err := io.CopyN(io.Discard, b.rc, maxDrainBytes+1)
	b.unread = err != io.EOF || n > maxDrainBytes
}

// response is the http.ResponseWriter and http.Flusher of one request.
type response struct {
	c      *conn
	req    *http.Request
	cancel context.CancelFunc // cancels req's context
	header http.Header

	status   int
	declared int64 // the handler's Content-Length, -1 if none
	written  int64
	buf      []byte // the held-back start of the body, up to respBufSize

	wroteHeader bool
	committed   bool // the head is written
	chunked     bool
	close       bool // the connection closes after this answer
	broken      bool // a write to the connection failed
	scratch     [64]byte
}

func (w *response) reset(c *conn, req *http.Request, cancel context.CancelFunc) {
	h := w.header
	if h == nil {
		h = make(http.Header)
	}
	clear(h)
	*w = response{c: c, req: req, cancel: cancel, header: h, declared: -1, buf: w.buf[:0]}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic("invalid WriteHeader code " + strconv.Itoa(code))
	}
	w.wroteHeader, w.status = true, code
	if cl := w.header.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.declared = v
		} else {
			w.header.Del("Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.declared >= 0 && w.written > w.declared {
		return 0, http.ErrContentLength
	}
	if !w.committed {
		if len(w.buf)+len(p) <= respBufSize {
			w.buf = append(w.buf, p...)
			return len(p), nil
		}
		w.commit(false, p)
	}
	return w.writeBody(p)
}

// Flush sends the head and what is held back, switching an answer of unknown
// length to chunked. Once the request body is consumed it also starts the
// close detector.
func (w *response) Flush() {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !w.committed {
		w.commit(false, nil)
	}
	if w.c.bw.Flush() != nil {
		w.broken = true
	}
	if w.c.watching == nil && w.c.body.eof {
		w.c.watch(w.cancel)
	}
}

// finish ends the answer and reports whether the connection stays open.
func (w *response) finish() bool {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !w.committed {
		w.commit(true, nil)
	} else if w.chunked {
		w.c.bw.WriteString("0\r\n\r\n")
	}
	if w.c.bw.Flush() != nil {
		return false
	}
	if w.declared >= 0 && w.written != w.declared && bodyAllowed(w.status) && w.req.Method != http.MethodHead {
		return false // too short: the client would read the next answer as body
	}
	return !w.close && !w.broken
}

// commit writes the head and the held-back body. done reports that the
// handler returned, so the held-back body is the whole of it; next is the
// write that overflowed the hold, sniffed for a Content-Type when nothing is
// held back.
func (w *response) commit(done bool, next []byte) {
	w.committed = true
	c, req, h := w.c, w.req, w.header
	head, bodyOK := req.Method == http.MethodHead, bodyAllowed(w.status)
	cl := int64(-1)
	switch {
	case !bodyOK:
	case w.declared >= 0:
		cl = w.declared
	case done && (!head || len(w.buf) > 0):
		cl = int64(len(w.buf))
	case !head && req.ProtoAtLeast(1, 1):
		w.chunked = true
	case !head:
		w.close = true // HTTP/1.0 cannot chunk: the end of the body is the close
	}
	conn := req.Header.Get("Connection")
	keepAlive10 := req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(conn, "keep-alive") && (cl >= 0 || head || !bodyOK)
	if !keepAlive10 && (!req.ProtoAtLeast(1, 1) || req.Close || hasToken(conn, "close")) || c.srv.closing.Load() || c.body.unread || h.Get("Connection") == "close" {
		w.close = true
	}

	bw := c.bw
	if req.ProtoAtLeast(1, 1) {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	bw.Write(strconv.AppendInt(w.scratch[:0], int64(w.status), 10))
	bw.WriteByte(' ')
	if text := http.StatusText(w.status); text != "" {
		bw.WriteString(text)
	} else {
		bw.WriteString("status code " + strconv.Itoa(w.status))
	}
	bw.WriteString("\r\n")
	h.WriteSubset(bw, framingHeaders)
	sniff := w.buf
	if len(sniff) == 0 {
		sniff = next
	}
	if _, typed := h["Content-Type"]; bodyOK && !typed && len(sniff) > 0 && h.Get("Content-Encoding") == "" {
		bw.WriteString("Content-Type: ")
		bw.WriteString(http.DetectContentType(sniff))
		bw.WriteString("\r\n")
	}
	if _, set := h["Connection"]; !set {
		if w.close {
			bw.WriteString("Connection: close\r\n")
		} else if keepAlive10 {
			bw.WriteString("Connection: keep-alive\r\n")
		}
	}
	if w.chunked {
		bw.WriteString("Transfer-Encoding: chunked\r\n")
	}
	if _, dated := h["Date"]; !dated {
		bw.WriteString("Date: ")
		bw.Write(time.Now().UTC().AppendFormat(w.scratch[:0], http.TimeFormat))
		bw.WriteString("\r\n")
	}
	if cl >= 0 {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(w.scratch[:0], cl, 10))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	if len(w.buf) > 0 {
		w.writeBody(w.buf)
		w.buf = w.buf[:0]
	}
}

// framingHeaders are the handler's headers the loop writes itself.
var framingHeaders = map[string]bool{"Content-Length": true, "Transfer-Encoding": true}

// writeBody writes p after the head: as one chunk of a chunked body, as is
// otherwise, and not at all for HEAD.
func (w *response) writeBody(p []byte) (int, error) {
	if w.req.Method == http.MethodHead {
		return len(p), nil
	}
	bw := w.c.bw
	if w.chunked {
		bw.Write(strconv.AppendInt(w.scratch[:0], int64(len(p)), 16))
		bw.WriteString("\r\n")
	}
	n, err := bw.Write(p)
	if w.chunked && err == nil {
		_, err = bw.WriteString("\r\n")
	}
	if err != nil {
		w.broken = true
	}
	return n, err
}

// bodyAllowed reports whether an answer with this status may have a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// MethodNotAllowed builds the 405 handler for one path: the Allow header
// lists the methods the path does serve.
func MethodNotAllowed(allow ...string) http.HandlerFunc {
	allowed := strings.Join(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allowed)
		WriteJSON(w, http.StatusMethodNotAllowed, map[string]string{
			"error": fmt.Sprintf("method %s not allowed; allowed: %s", r.Method, allowed),
		})
	}
}

// WriteJSON sends one JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
