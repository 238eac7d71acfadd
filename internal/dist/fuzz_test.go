package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sessionSeedMessages seeds FuzzBinaryFrame (and, via TestWriteFuzzCorpus,
// its committed corpus): one of each frame type a binary session carries,
// plus the boundary shapes that exercise every branch of the codec.
func sessionSeedMessages() []*Message {
	return []*Message{
		{Type: TypeHeartbeat},
		{Type: TypeDispatch, Dispatch: &Dispatch{}},
		{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{
			{ID: 1, Objective: "rosenbrock", X: []float64{0.5, -1.25, math.Copysign(0, -1)}, Seed: -7, Skip: 3, Dt: 0.1},
			{ID: 2, Objective: "sphere", Seed: 1 << 40, Dt: 5e-324},
		}}},
		{Type: TypeResults, Results: &Results{Results: []TaskResult{
			{ID: 1, Z: 0.5, F: 0.25},
			{ID: 2, Err: `unknown objective "x"`},
		}}},
	}
}

// handshakeSeedMessages seeds FuzzJSONFrame: the hello/welcome shapes an
// untrusted peer sends before the session turns binary.
func handshakeSeedMessages() []*Message {
	return []*Message{
		{Type: TypeHello, Hello: &Hello{Name: "w", Capacity: 4, Protos: []string{"binary"}}},
		{Type: TypeHello, Hello: &Hello{Name: "", Capacity: 0}},
		{Type: TypeWelcome, Welcome: &Welcome{Worker: "w#1", HeartbeatMillis: 1000, Proto: "binary"}},
	}
}

// fuzzFrame checks the fuzz contract for one codec: arbitrary input must
// either error or decode to a message that re-encodes and re-decodes to
// itself. Panics and non-finite leaks fail the run; the count-vs-remaining
// guards are what keep hostile lengths from over-allocating.
func fuzzFrame(t *testing.T, proto Proto, data []byte) {
	fr := NewFrameReader(bytes.NewReader(data), proto)
	var m Message
	if err := fr.Read(&m); err != nil {
		return // rejected input is the expected outcome for garbage
	}
	checkFiniteMessage(t, &m)
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf, proto).Write(&m); err != nil {
		t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
	}
	var m2 Message
	if err := NewFrameReader(&buf, proto).Read(&m2); err != nil {
		t.Fatalf("re-encoded message does not decode: %v (%+v)", err, m)
	}
	if !reflect.DeepEqual(canonical(&m), canonical(&m2)) {
		t.Fatalf("re-encode round trip diverged:\n first:  %+v\n second: %+v", m, m2)
	}
}

// checkFiniteMessage asserts no non-finite float crossed the decoder.
func checkFiniteMessage(t *testing.T, m *Message) {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if m.Dispatch != nil {
		for _, task := range m.Dispatch.Tasks {
			if bad(task.Dt) {
				t.Fatalf("non-finite dt decoded: %v", task.Dt)
			}
			for _, v := range task.X {
				if bad(v) {
					t.Fatalf("non-finite coordinate decoded: %v", v)
				}
			}
		}
	}
	if m.Results != nil {
		for _, r := range m.Results.Results {
			if bad(r.Z) || bad(r.F) {
				t.Fatalf("non-finite result decoded: %+v", r)
			}
		}
	}
}

// FuzzBinaryFrame fuzzes the binary frame decoder: truncated, oversize,
// garbage and bit-flipped inputs must error cleanly — never panic, never
// over-allocate, never yield a message that fails to round-trip.
func FuzzBinaryFrame(f *testing.F) {
	for _, m := range sessionSeedMessages() {
		frame, err := appendBinaryFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		clone := func(b []byte) []byte { return append([]byte(nil), b...) }
		f.Add(clone(frame))
		f.Add(clone(frame[:len(frame)-1])) // truncated body
		f.Add(clone(frame[:2]))            // truncated prefix
		f.Add(append(clone(frame), 0xFF))  // trailing garbage
	}
	var hostile [4]byte
	binary.BigEndian.PutUint32(hostile[:], MaxFrame+1)
	f.Add(hostile[:])
	f.Add([]byte{0, 0, 0, 1, 99}) // unknown type
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, ProtoBinary, data)
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/ from sessionSeedMessages and handshakeSeedMessages. It is a
// no-op unless DIST_WRITE_FUZZ_CORPUS=1, so the corpus only changes
// deliberately:
//
//	DIST_WRITE_FUZZ_CORPUS=1 go test ./internal/dist -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("DIST_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set DIST_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	write := func(target string, frames [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, frame := range frames {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var bin, jsn [][]byte
	for _, m := range sessionSeedMessages() {
		frame, err := appendBinaryFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		bin = append(bin, frame, frame[:len(frame)-1])
	}
	for _, m := range handshakeSeedMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		jf := append([]byte(nil), buf.Bytes()...)
		jsn = append(jsn, jf, jf[:len(jf)-1])
	}
	var hostile [4]byte
	binary.BigEndian.PutUint32(hostile[:], MaxFrame+1)
	bin = append(bin, hostile[:], []byte{0, 0, 0, 1, 99})
	jsn = append(jsn, []byte{0, 0, 0, 2, '{', '!'})
	write("FuzzBinaryFrame", bin)
	write("FuzzJSONFrame", jsn)
}

// FuzzJSONFrame is the same contract over the JSON handshake codec, which
// parses hello and welcome frames from untrusted peers.
func FuzzJSONFrame(f *testing.F) {
	for _, m := range handshakeSeedMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(append([]byte(nil), frame...))
		f.Add(append([]byte(nil), frame[:len(frame)-1]...))
	}
	f.Add([]byte{0, 0, 0, 2, '{', '!'})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, ProtoJSON, data)
	})
}
