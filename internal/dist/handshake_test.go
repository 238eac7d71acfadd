package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The handshake bytes both sides send with default settings. Binaries built
// before the session codec became a constant send exactly these, which is
// what keeps old and new agents and coordinators interoperating.
const (
	wantHelloBody   = `{"type":"hello","hello":{"name":"n","capacity":1,"protos":["binary"]}}`
	wantWelcomeBody = `{"type":"welcome","welcome":{"worker":"n#1","heartbeat_ms":1000,"proto":"binary"}}`
)

// TestHandshakeVersionCheck is the session-codec version check, one row per
// handshake. The coordinator registers a hello only if it offers "binary":
// any other hello is closed with a worker_rejected event and never sees a
// task. The agent runs a session only under a welcome that announces
// "binary"; any other welcome makes Run fail.
func TestHandshakeVersionCheck(t *testing.T) {
	tests := []struct {
		name    string
		hello   *Hello   // coordinator rows: the hello a peer sends
		welcome *Welcome // agent rows: the welcome a peer answers
		accept  bool
	}{
		{"hello offers binary", &Hello{Name: "n", Capacity: 1, Protos: []string{"binary"}}, nil, true},
		{"hello offers nothing", &Hello{Name: "n", Capacity: 1}, nil, false},
		{"hello offers json", &Hello{Name: "n", Capacity: 1, Protos: []string{"json"}}, nil, false},
		{"welcome announces binary", nil, &Welcome{Worker: "n#1", HeartbeatMillis: 1000, Proto: "binary"}, true},
		{"welcome announces nothing", nil, &Welcome{Worker: "n#1", HeartbeatMillis: 1000}, false},
		{"welcome announces json", nil, &Welcome{Worker: "n#1", HeartbeatMillis: 1000, Proto: "json"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.hello != nil {
				checkCoordinatorHandshake(t, tt.hello, tt.accept)
			} else {
				checkAgentHandshake(t, tt.welcome, tt.accept)
			}
		})
	}
}

// eventLog collects a Logger's NDJSON lines.
type eventLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *eventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// readRawFrame reads one length-prefixed frame body without decoding it.
func readRawFrame(conn net.Conn) (string, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		return "", err
	}
	body := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	_, err := io.ReadFull(conn, body)
	return string(body), err
}

// checkCoordinatorHandshake sends hello to a real coordinator that holds one
// queued task. An accepted hello gets the default welcome and then that task
// in a binary dispatch frame; a refused one gets the connection closed with
// nothing sent, and the task stays queued.
func checkCoordinatorHandshake(t *testing.T, hello *Hello, accept bool) {
	events := &eventLog{}
	c := newTestCoordinator(t, Config{Events: obs.NewLogger(events)})
	ctx, cancel := context.WithCancel(context.Background())
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		c.SampleFleet(ctx, []sim.FleetRequest{{Objective: "sphere", X: []float64{1, 2}, Seed: 5, Dt: 0.1}})
	}()
	t.Cleanup(func() { cancel(); <-sampled })
	for c.Status().QueuedTasks != 1 {
		time.Sleep(time.Millisecond)
	}

	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, &Message{Type: TypeHello, Hello: hello}); err != nil {
		t.Fatal(err)
	}
	body, err := readRawFrame(conn)
	if !accept {
		if err != io.EOF {
			t.Fatalf("refused hello: read = %q, %v; want the connection closed with nothing sent", body, err)
		}
		if !strings.Contains(events.String(), `"event":"worker_rejected"`) {
			t.Errorf("no worker_rejected event; events:\n%s", events)
		}
		if st := c.Status(); len(st.Workers) != 0 || st.QueuedTasks != 1 || st.OutstandingTasks != 0 {
			t.Errorf("after a refused hello: %+v, want no worker and the task still queued", st)
		}
		return
	}
	if err != nil || body != wantWelcomeBody {
		t.Fatalf("welcome = %q, %v; want %q", body, err, wantWelcomeBody)
	}
	var m Message
	if err := NewFrameReader(conn, ProtoBinary).Read(&m); err != nil {
		t.Fatalf("first session frame: %v", err)
	}
	if m.Type != TypeDispatch || len(m.Dispatch.Tasks) != 1 {
		t.Fatalf("first session frame = %+v, want a binary dispatch of the queued task", m)
	}
}

// checkAgentHandshake runs a Worker against a scripted coordinator that
// answers the agent's hello with welcome. Under an accepted welcome the agent
// executes a binary dispatch and answers in binary; under a refused one Run
// returns an error naming both codecs.
func checkAgentHandshake(t *testing.T, welcome *Welcome, accept bool) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w := NewWorker(WorkerConfig{Addr: ln.Addr().String(), Name: "n", Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if body, err := readRawFrame(conn); err != nil || body != wantHelloBody {
		t.Fatalf("hello = %q, %v; want %q", body, err, wantHelloBody)
	}
	if err := WriteFrame(conn, &Message{Type: TypeWelcome, Welcome: welcome}); err != nil {
		t.Fatal(err)
	}
	if !accept {
		select {
		case err := <-runErr:
			if err == nil || !strings.Contains(err.Error(), `"`+welcome.Proto+`"`) || !strings.Contains(err.Error(), `"binary"`) {
				t.Errorf("Run = %v, want an error naming %q and \"binary\"", err, welcome.Proto)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Run kept the session despite the welcome's codec")
		}
		return
	}
	task := Task{ID: 7, Objective: "sphere", X: []float64{1, 2}, Seed: 5, Skip: 2, Dt: 0.1}
	if err := NewFrameWriter(conn, ProtoBinary).Write(&Message{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{task}}}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(conn, ProtoBinary)
	for {
		var m Message
		if err := fr.Read(&m); err != nil {
			t.Fatalf("reading the agent's binary frames: %v", err)
		}
		if m.Type != TypeResults {
			continue // heartbeats
		}
		if r := m.Results.Results; len(r) != 1 || r[0].ID != task.ID || r[0].Z != expectedDraw(task.Seed, task.Skip) {
			t.Fatalf("results = %+v, want task %d's draw", r, task.ID)
		}
		break
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Errorf("Run after cancel = %v, want nil", err)
	}
}

// TestWorkerHandshakeDeadline: the first coordinator in the agent's failover
// list accepts TCP and never answers, as a stopped process does (the kernel
// still completes the TCP handshake). The agent must give up on it after
// handshakeTimeout and register with the second.
func TestWorkerHandshakeDeadline(t *testing.T) {
	saved := handshakeTimeout
	t.Cleanup(func() { handshakeTimeout = saved }) // registered first, so it runs after the agent stops
	handshakeTimeout = 100 * time.Millisecond

	hold, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := hold.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()

	c := newTestCoordinator(t, Config{})
	w := NewWorker(WorkerConfig{Addrs: []string{hold.Addr().String(), c.Addr().String()}, Name: "patient", Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.RunLoop(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	t.Cleanup(func() { // runs first, freeing an agent still parked on a held connection
		hold.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := c.WaitWorkers(waitCtx, 1); err != nil {
		t.Fatalf("agent never left the silent coordinator: %v", err)
	}
	res, err := c.SampleFleet(waitCtx, []sim.FleetRequest{{Objective: "sphere", X: []float64{2, 2}, Seed: 41, Dt: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedDraw(41, 0); res[0].Z != want {
		t.Errorf("Z = %x, want %x", res[0].Z, want)
	}
}
