// Package dist is the distributed sampling fleet: a coordinator that farms
// batched sampling increments out to remote worker agents over TCP, the
// network realization of the paper's master/worker deployment (and of the
// evaluator fleets behind parallel SPSA and parallel Bayesian optimization
// services). cmd/optworker runs the agent; the coordinator plugs in under
// sim.LocalSpace as a sim.FleetSampler, so every optimizer, the jobs manager
// and the optd server gain remote execution without code changes.
//
// Determinism is the package's load-bearing property: a task is a pure
// function — "the (skip+1)-th standard-normal draw of the stream seeded s,
// plus the objective value at x" — so any worker, at any time, after any
// number of re-dispatches, produces the same bytes. The coordinator therefore
// re-dispatches the outstanding tasks of a dead worker (disconnect or
// heartbeat timeout) to the survivors, in task order, and the run's results
// remain bitwise identical to a single-process run.
//
// Frame protocol: every message is a 4-byte big-endian length prefix followed
// by a message body. The handshake is two JSON frames — the worker opens the
// connection and sends hello (its name, capacity, and the session codec it
// speaks), the coordinator answers welcome (the worker id, the heartbeat
// interval, and the session codec) — and every frame after the welcome is in
// the binary format of binproto.go. The codec fields are a version check: the
// coordinator refuses a hello that does not offer "binary", and the worker
// refuses a welcome that does not announce it. After the handshake the
// coordinator pushes dispatch frames; the worker answers with result frames
// and periodic heartbeats. Either side closing the connection ends the
// session; the coordinator requeues whatever the worker still owed.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxFrame bounds one frame's JSON payload. Batches are a few hundred tasks
// of a few coordinates each; 16 MiB is far above any legitimate frame and
// keeps a corrupt length prefix from allocating gigabytes.
const MaxFrame = 16 << 20

// Message types.
const (
	// TypeHello is the worker's opening frame.
	TypeHello = "hello"
	// TypeWelcome is the coordinator's answer to hello.
	TypeWelcome = "welcome"
	// TypeHeartbeat is the worker's liveness beacon (no body).
	TypeHeartbeat = "heartbeat"
	// TypeDispatch carries tasks from coordinator to worker.
	TypeDispatch = "dispatch"
	// TypeResults carries task results from worker to coordinator.
	TypeResults = "results"
)

// Message is the frame envelope: Type selects which (single) body field is
// set. Heartbeats have no body.
type Message struct {
	Type     string    `json:"type"`
	Hello    *Hello    `json:"hello,omitempty"`
	Welcome  *Welcome  `json:"welcome,omitempty"`
	Dispatch *Dispatch `json:"dispatch,omitempty"`
	Results  *Results  `json:"results,omitempty"`
}

// Proto identifies a frame codec. The zero value is the JSON envelope of the
// handshake; ProtoBinary is the session codec of binproto.go.
type Proto uint8

// The frame codecs.
const (
	ProtoJSON   Proto = 0
	ProtoBinary Proto = 1
)

// String returns the codec's wire name ("json", "binary").
func (p Proto) String() string {
	switch p {
	case ProtoJSON:
		return "json"
	case ProtoBinary:
		return "binary"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

func (p Proto) valid() bool { return p == ProtoJSON || p == ProtoBinary }

// Hello announces a worker: its human label, how many tasks it executes
// concurrently, and the session codec it speaks.
type Hello struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	// Protos lists the session codecs the worker speaks, by wire name. The
	// coordinator refuses a hello without "binary".
	Protos []string `json:"protos,omitempty"`
}

// Welcome acknowledges registration: the coordinator-assigned unique worker
// id, the heartbeat interval the worker must keep, and the session codec
// every later frame uses.
type Welcome struct {
	Worker          string `json:"worker"`
	HeartbeatMillis int    `json:"heartbeat_ms"`
	// Proto is the session codec's wire name; the worker refuses anything
	// but "binary".
	Proto string `json:"proto,omitempty"`
}

// Task is one sampling increment to execute remotely. Its result is a pure
// function of these fields, which is what makes re-dispatch safe.
type Task struct {
	// ID is coordinator-unique and monotone; requeued tasks keep their ID.
	ID uint64 `json:"id"`
	// Objective names the function to evaluate in the worker's catalog.
	Objective string `json:"objective"`
	// X holds the evaluation coordinates.
	X []float64 `json:"x"`
	// Seed identifies the point's noise stream.
	Seed int64 `json:"seed"`
	// Skip is the number of draws the stream has already consumed.
	Skip int `json:"skip"`
	// Dt is the sampling increment in virtual seconds (the cost model's
	// simulated duration; the draw itself does not depend on it).
	Dt float64 `json:"dt"`
}

// Dispatch carries a slice of tasks to one worker.
type Dispatch struct {
	Tasks []Task `json:"tasks"`
}

// TaskResult is the worker's answer to one Task. Go's JSON encoding of
// float64 is shortest-round-trip, so Z and F cross the wire bit-exactly;
// non-finite values cannot be encoded, which is why the coordinator rejects
// non-finite requests up front and the worker reports a non-finite objective
// value as Err instead of as F.
type TaskResult struct {
	ID uint64 `json:"id"`
	// Z is the standard-normal draw at position Skip of stream Seed.
	Z float64 `json:"z"`
	// F is the objective value at X.
	F float64 `json:"f"`
	// Err reports a task the worker could not execute (unknown objective);
	// the coordinator fails the owning batch with it.
	Err string `json:"err,omitempty"`
}

// Results carries completed task results back to the coordinator.
type Results struct {
	Results []TaskResult `json:"results"`
}

// WriteFrame encodes m as one length-prefixed JSON frame. The prefix and
// body are written in a single Write call, so a mutex around WriteFrame is
// all a concurrent sender needs.
func WriteFrame(w io.Writer, m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encode frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", len(body), MaxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	if _, err = w.Write(buf); err != nil {
		return err
	}
	countFrameTx(ProtoJSON, len(buf))
	return nil
}

// ReadFrame decodes the next frame into m. It returns io.EOF on a clean
// close before the prefix and io.ErrUnexpectedEOF on a truncated frame.
func ReadFrame(r io.Reader, m *Message) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrame {
		return fmt.Errorf("dist: frame length %d exceeds the %d-byte limit", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	*m = Message{}
	if err := json.Unmarshal(body, m); err != nil {
		return fmt.Errorf("dist: decode frame: %w", err)
	}
	countFrameRx(ProtoJSON, 4+int(n))
	return nil
}
