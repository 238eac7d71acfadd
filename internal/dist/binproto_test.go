package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// encodeBinary is the test-side shorthand for one binary frame.
func encodeBinary(t *testing.T, m *Message) []byte {
	t.Helper()
	buf, err := appendBinaryFrame(nil, m)
	if err != nil {
		t.Fatalf("appendBinaryFrame: %v", err)
	}
	return buf
}

// decodeBinary reads one binary frame through the incremental reader path.
func decodeBinary(frame []byte, m *Message) error {
	return NewFrameReader(bytes.NewReader(frame), ProtoBinary).Read(m)
}

// canonical normalizes the encoding-invisible distinctions of a message so
// round-trip comparisons are exact: empty slices decode as nil.
func canonical(m *Message) *Message {
	out := *m
	if m.Hello != nil && len(m.Hello.Protos) == 0 {
		h := *m.Hello
		h.Protos = nil
		out.Hello = &h
	}
	if m.Dispatch != nil {
		d := Dispatch{}
		if len(m.Dispatch.Tasks) > 0 {
			d.Tasks = append([]Task(nil), m.Dispatch.Tasks...)
			for i := range d.Tasks {
				if len(d.Tasks[i].X) == 0 {
					d.Tasks[i].X = nil
				}
			}
		}
		out.Dispatch = &d
	}
	if m.Results != nil && len(m.Results.Results) == 0 {
		out.Results = &Results{}
	}
	return &out
}

// randomSessionMessage builds one random frame of a type a binary session
// carries (heartbeat, dispatch, results), with negative seeds and error
// results mixed in.
func randomSessionMessage(rng *rand.Rand) *Message {
	m := randomMessage(rng)
	for m.Type == TypeHello || m.Type == TypeWelcome {
		m = randomMessage(rng)
	}
	switch m.Type {
	case TypeDispatch:
		for i := range m.Dispatch.Tasks {
			if rng.Intn(4) == 0 {
				m.Dispatch.Tasks[i].Seed = -m.Dispatch.Tasks[i].Seed
			}
		}
	case TypeResults:
		for i := range m.Results.Results {
			if rng.Intn(4) == 0 {
				m.Results.Results[i] = TaskResult{ID: m.Results.Results[i].ID, Err: "unknown objective \"x\""}
			}
		}
	}
	return m
}

// TestBinaryFrameRoundTripProperty drives randomly generated messages of
// every session type through the binary encoder and the incremental reader,
// demanding exact reconstruction — the binary face of
// TestFrameRoundTripProperty.
func TestBinaryFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		m := randomSessionMessage(rng)
		frame := encodeBinary(t, m)
		var got Message
		if err := decodeBinary(frame, &got); err != nil {
			t.Fatalf("decode: %v (message %+v)", err, m)
		}
		return reflect.DeepEqual(*canonical(m), got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryFrameBoundaryValues pins the encoder's edges: empty batches,
// zero-coordinate tasks, u16-limit strings, and the adversarial floats
// (negative zero, denormals, extremes) the determinism contract needs
// bit-exact.
func TestBinaryFrameBoundaryValues(t *testing.T) {
	long := strings.Repeat("x", maxStr16)
	cases := []*Message{
		{Type: TypeHeartbeat},
		{Type: TypeDispatch, Dispatch: &Dispatch{}},
		{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{{ID: math.MaxUint64, Objective: long, X: nil, Seed: math.MinInt64, Skip: math.MaxInt32, Dt: 5e-324}}}},
		{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{{ID: 0, Objective: "f", X: []float64{math.Copysign(0, -1), 1.797e308, -5e-324}, Seed: 0, Skip: 0, Dt: 1}}}},
		{Type: TypeResults, Results: &Results{}},
		{Type: TypeResults, Results: &Results{Results: []TaskResult{{ID: 1, Z: math.Copysign(0, -1), F: 1.797e308}}}},
		{Type: TypeResults, Results: &Results{Results: []TaskResult{{ID: 2, Err: long}}}},
	}
	for i, m := range cases {
		var got Message
		if err := decodeBinary(encodeBinary(t, m), &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(canonical(m), &got) {
			t.Errorf("case %d: round trip mismatch:\n in:  %+v\n out: %+v", i, m, got)
		}
	}

	// Past the u16 string limit the encoder must refuse objectives…
	tooLong := long + "x"
	if _, err := appendBinaryFrame(nil, &Message{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{{ID: 1, Objective: tooLong, Dt: 1}}}}); err == nil {
		t.Error("oversize objective encoded")
	}
	// …except error text, which is truncated rather than stranding the result.
	frame := encodeBinary(t, &Message{Type: TypeResults, Results: &Results{Results: []TaskResult{{ID: 3, Err: tooLong}}}})
	var got Message
	if err := decodeBinary(frame, &got); err != nil {
		t.Fatalf("truncated-error frame: %v", err)
	}
	if gotErr := got.Results.Results[0].Err; gotErr != long {
		t.Errorf("oversize error text: got %d bytes, want truncation to %d", len(gotErr), maxStr16)
	}
}

// TestBinaryFrameRejectsNonFinite checks both directions of the non-finite
// guarantee: NaN and ±Inf cannot be encoded, and a hand-patched frame
// carrying them cannot be decoded — exactly the JSON boundary's semantics.
func TestBinaryFrameRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		msgs := []*Message{
			{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{{ID: 1, Objective: "f", X: []float64{v}, Dt: 1}}}},
			{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{{ID: 1, Objective: "f", Dt: v}}}},
			{Type: TypeResults, Results: &Results{Results: []TaskResult{{ID: 1, Z: v, F: 0}}}},
			{Type: TypeResults, Results: &Results{Results: []TaskResult{{ID: 1, Z: 0, F: v}}}},
		}
		for i, m := range msgs {
			if _, err := appendBinaryFrame(nil, m); err == nil {
				t.Errorf("%v in message %d encoded", v, i)
			}
		}
	}

	// Patch a valid results frame's Z bits to NaN: decode must reject it.
	frame := encodeBinary(t, &Message{Type: TypeResults, Results: &Results{Results: []TaskResult{{ID: 1, Z: 0.5, F: 0.25}}}})
	patched := append([]byte(nil), frame...)
	// Layout: prefix(4) type(1) count(4) id(8) kind(1) z(8) f(8).
	binary.BigEndian.PutUint64(patched[4+1+4+8+1:], math.Float64bits(math.NaN()))
	var m Message
	if err := decodeBinary(patched, &m); err == nil {
		t.Error("NaN-patched frame decoded")
	}
}

// TestBinaryFrameTruncation feeds every proper prefix of valid frames to the
// reader: each must error (io.EOF only at a clean frame boundary), never
// panic, never yield a message.
func TestBinaryFrameTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50; i++ {
		frame := encodeBinary(t, randomSessionMessage(rng))
		for cut := 0; cut < len(frame); cut++ {
			var m Message
			err := decodeBinary(frame[:cut], &m)
			if err == nil {
				t.Fatalf("prefix of %d/%d bytes decoded", cut, len(frame))
			}
			if cut == 0 && err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
		}
	}
}

// TestBinaryFrameRejectsHostileCounts checks that corrupt counts and length
// prefixes are rejected by arithmetic, before any allocation is sized from
// them.
func TestBinaryFrameRejectsHostileCounts(t *testing.T) {
	// Oversize length prefix.
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrame+1)
	var m Message
	if err := decodeBinary(prefix[:], &m); err == nil {
		t.Error("oversize length prefix accepted")
	}
	// Zero-length frame (no type byte).
	if err := decodeBinary([]byte{0, 0, 0, 0}, &m); err == nil {
		t.Error("empty frame accepted")
	}
	// A dispatch claiming 2^31 tasks in a 12-byte body.
	body := []byte{binDispatch, 0x80, 0, 0, 0, 1, 2, 3}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	if err := decodeBinary(frame, &m); err == nil {
		t.Error("hostile task count accepted")
	}
	// A task claiming 65535 coordinates in a near-empty frame.
	task := encodeBinary(t, &Message{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: []Task{{ID: 1, Objective: "f", Dt: 1}}}})
	patched := append([]byte(nil), task...)
	// Layout: prefix(4) type(1) count(4) id(8) objlen(2)+"f"(1) nx(2)…
	binary.BigEndian.PutUint16(patched[4+1+4+8+2+1:], math.MaxUint16)
	if err := decodeBinary(patched, &m); err == nil {
		t.Error("hostile coordinate count accepted")
	}
	// Unknown frame type and trailing garbage.
	if err := decodeBinary([]byte{0, 0, 0, 1, 99}, &m); err == nil {
		t.Error("unknown frame type accepted")
	}
	hb := encodeBinary(t, &Message{Type: TypeHeartbeat})
	hb = append(hb, 0xFF)
	binary.BigEndian.PutUint32(hb, 2)
	if err := decodeBinary(hb, &m); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestBinaryFrameRejectsHandshakeTypes pins that hello and welcome exist only
// as JSON: the binary encoder refuses them, and the type bytes the retired
// binary hello (1) and welcome (2) used decode as unknown frames.
func TestBinaryFrameRejectsHandshakeTypes(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeHello, Hello: &Hello{Name: "w", Capacity: 1, Protos: []string{"binary"}}},
		{Type: TypeWelcome, Welcome: &Welcome{Worker: "w#1", HeartbeatMillis: 1000, Proto: "binary"}},
	} {
		if _, err := appendBinaryFrame(nil, m); err == nil {
			t.Errorf("%s frame encoded in the binary codec", m.Type)
		}
	}
	for _, typ := range []byte{1, 2} {
		var m Message
		if err := decodeBinary([]byte{0, 0, 0, 1, typ}, &m); err == nil {
			t.Errorf("binary frame type %d decoded as %+v", typ, m)
		}
	}
}
