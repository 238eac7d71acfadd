package h1

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// idleConnsPerShard is how many idle connections a Transport keeps to each
// shard: well above any client concurrency, so proxied requests ride
// kept-alive connections instead of dialing one every few requests.
const idleConnsPerShard = 64

// Transport is the router's default shard transport: an HTTP/1.1 round trip
// on the caller's own goroutine. It writes the request into a kept-alive
// connection with one flush and reads the answer itself; there is no reader
// or writer goroutine and no channel per request, so a proxied request wakes
// no other goroutine. A connection goes back to its shard's LIFO idle stack
// once its body reached EOF, unless the answer closes it, its context fired
// or the shard wrote past the answer. The zero Transport is ready for use.
type Transport struct {
	mu     sync.Mutex
	idle   map[string][]*hopConn // guarded by mu: per address, most recently pooled last
	closed bool                  // guarded by mu: CloseIdleConnections ran; nothing is pooled again
}

// dialer dials every Transport's shard connections.
var dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// hopConn is one kept-alive shard connection with its buffers.
type hopConn struct {
	net.Conn
	addr   string
	br     *bufio.Reader
	bw     *bufio.Writer
	idleAt time.Time // when it was last pooled
}

// RoundTrip implements http.RoundTripper. A GET or HEAD that fails on a
// reused connection before the answer's first byte met a connection the
// shard closed while it sat idle (a restart), and is sent once more on a
// fresh dial. Any other method is not: a replayed submit's minted ?id= would
// collide on the shard.
func (h *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, addr := req.Context(), req.URL.Host
	pc, reused, err := h.get(ctx, addr)
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	resp, answered, err := h.send(pc, req, reused)
	if err == nil || !reused || answered || ctx.Err() != nil ||
		(req.Method != http.MethodGet && req.Method != http.MethodHead) ||
		(req.Body != nil && req.Body != http.NoBody) {
		return resp, err
	}
	if pc, err = h.dial(ctx, addr); err != nil {
		return nil, err
	}
	resp, _, err = h.send(pc, req, false)
	return resp, err
}

// get pops the most recently pooled connection to addr, or dials one.
func (h *Transport) get(ctx context.Context, addr string) (*hopConn, bool, error) {
	h.mu.Lock()
	stack := h.idle[addr]
	n := len(stack)
	if n > 0 && time.Since(stack[n-1].idleAt) <= hopIdleTimeout {
		pc := stack[n-1]
		stack[n-1] = nil
		h.idle[addr] = stack[:n-1]
		h.mu.Unlock()
		return pc, true, nil
	}
	h.mu.Unlock()
	if n > 0 {
		// The top of the stack sat idle too long, so every connection below
		// it did too.
		h.closeIdle(addr)
	}
	pc, err := h.dial(ctx, addr)
	return pc, false, err
}

func (h *Transport) dial(ctx context.Context, addr string) (*hopConn, error) {
	c, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctx.Err() == nil {
			h.closeIdle(addr)
		}
		return nil, err
	}
	return &hopConn{Conn: c, addr: addr, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// send writes req on pc and reads the answer's header. answered reports
// whether any byte of the answer arrived. On an error pc is gone.
func (h *Transport) send(pc *hopConn, req *http.Request, reused bool) (resp *http.Response, answered bool, err error) {
	ctx := req.Context()
	if trace := httptrace.ContextClientTrace(ctx); trace != nil && trace.GotConn != nil {
		trace.GotConn(httptrace.GotConnInfo{Conn: pc.Conn, Reused: reused})
	}
	// A fired context unblocks the exchange through the connection's
	// deadline. No deadline is copied from the context: its timer and the
	// connection's would race, and a hung shard's 504 would turn into a 502.
	stop := context.AfterFunc(ctx, func() { pc.SetDeadline(aLongTimeAgo) })
	if err = req.Write(pc.bw); err == nil {
		err = pc.bw.Flush()
	}
	if err != nil {
		err = fmt.Errorf("write request: %w", err)
	} else if _, err = pc.br.Peek(1); err != nil {
		err = fmt.Errorf("read answer: %w", err)
	} else {
		answered = true
		if resp, err = http.ReadResponse(pc.br, req); err != nil {
			err = fmt.Errorf("read answer: %w", err)
		}
	}
	if err != nil {
		h.done(pc, stop, false, true)
		return nil, answered, err
	}
	keep := !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		h.done(pc, stop, keep, false)
	} else {
		resp.Body = &hopBody{h: h, pc: pc, body: resp.Body, stop: stop, keep: keep}
	}
	return resp, true, nil
}

// done settles pc once its exchange is over: back on the idle stack when
// reusable, its context never fired (a fired one left the deadline in the
// past) and its reader holds no byte past the answer's framing (the next
// request would read them as its answer), closed otherwise. Bytes that
// arrive after the body's end was read are not seen here: catching them
// would take a read syscall per reuse. A failure of the connection's own,
// not of a fired context, also closes every idle connection to the same
// shard: whatever broke this one (a restart, a crash) most likely broke
// them too.
func (h *Transport) done(pc *hopConn, stop func() bool, reusable, failed bool) {
	fired := !stop()
	if reusable && !fired && pc.br.Buffered() == 0 {
		h.put(pc)
		return
	}
	pc.Close()
	if failed && !fired {
		h.closeIdle(pc.addr)
	}
}

func (h *Transport) put(pc *hopConn) {
	pc.idleAt = time.Now()
	h.mu.Lock()
	if stack := h.idle[pc.addr]; !h.closed && len(stack) < idleConnsPerShard {
		if h.idle == nil {
			h.idle = make(map[string][]*hopConn)
		}
		h.idle[pc.addr] = append(stack, pc)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	pc.Close()
}

// closeIdle closes the idle connections to addr.
func (h *Transport) closeIdle(addr string) {
	h.mu.Lock()
	stack := h.idle[addr]
	delete(h.idle, addr)
	h.mu.Unlock()
	for _, pc := range stack {
		pc.Close()
	}
}

// CloseIdleConnections closes every idle connection, and any handed back
// later.
func (h *Transport) CloseIdleConnections() {
	h.mu.Lock()
	idle := h.idle
	h.idle, h.closed = nil, true
	h.mu.Unlock()
	for _, stack := range idle {
		for _, pc := range stack {
			pc.Close()
		}
	}
}

// hopBody is an answer's body on a hop connection. It settles the
// connection at EOF, on a read error, or on a Close before EOF, which leaves
// unread bytes on the connection and so closes it.
type hopBody struct {
	h    *Transport
	pc   *hopConn // nil once settled
	body io.ReadCloser
	stop func() bool
	keep bool
	err  error // what Read returns once pc is settled
}

func (b *hopBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.body.Read(p)
	if err != nil {
		b.err = err
		b.settle(err == io.EOF, err != io.EOF)
	}
	return n, err
}

func (b *hopBody) Close() error {
	if b.pc != nil {
		b.err = http.ErrBodyReadAfterClose
		b.settle(false, false)
	}
	return nil
}

func (b *hopBody) settle(eof, failed bool) {
	pc := b.pc
	b.pc = nil
	b.h.done(pc, b.stop, eof && b.keep, failed)
}
