package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventNDJSON: every event is exactly one parseable JSON line with
// ts + event leading and the caller's fields in order.
func TestEventNDJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC) }
	l.Event("worker_join", "worker", 3, "name", "agent-a", "capacity", 2, "err", error(nil))
	l.Event("job_state", "job", "j1", "state", "running")

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", err, lines[0])
	}
	if first["event"] != "worker_join" || first["worker"] != float64(3) || first["name"] != "agent-a" {
		t.Errorf("unexpected fields: %v", first)
	}
	if ts, ok := first["ts"].(string); !ok || ts != "2026-08-08T12:00:00.123456789Z" {
		t.Errorf("ts = %v", first["ts"])
	}
	if !strings.HasPrefix(lines[0], `{"ts":`) || !strings.Contains(lines[0], `,"event":"worker_join",`) {
		t.Errorf("field order not preserved: %s", lines[0])
	}
}

// TestEventAwkwardValues: errors, Stringers, durations and malformed
// key/value lists must still produce a valid line, never drop the event.
func TestEventAwkwardValues(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.Event("fatal",
		"err", errors.New("dial tcp: no route"),
		"backoff", 250*time.Millisecond,
		42, "non-string key",
		"dangling")
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if m["err"] != "dial tcp: no route" {
		t.Errorf("err = %v", m["err"])
	}
	if m["backoff"] != "250ms" {
		t.Errorf("backoff = %v", m["backoff"])
	}
	if m["42"] != "non-string key" {
		t.Errorf("coerced key = %v", m["42"])
	}
	if v, present := m["dangling"]; !present || v != nil {
		t.Errorf("dangling key = %v (present=%v), want null", v, present)
	}
}

// TestNilLoggerSafe: a nil *Logger (and a nil sink) discard silently so
// instrumented code needs no nil checks.
func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Event("anything", "k", "v")
	if NewLogger(nil) != nil {
		t.Error("NewLogger(nil) should return nil")
	}
}

// TestLoggerConcurrent: concurrent events on one logger never interleave
// mid-line (every line parses) and none are lost.
func TestLoggerConcurrent(t *testing.T) {
	var buf syncBuffer
	l := NewLogger(&buf)
	var wg sync.WaitGroup
	const writers, per = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Event("tick", "writer", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != writers*per {
		t.Fatalf("got %d lines, want %d", len(lines), writers*per)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("corrupt line: %v\n%s", err, line)
		}
	}
}

// syncBuffer serializes writes; the logger's own mutex should make this
// redundant, but the test must not race on the buffer itself.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// quotedKind is a string-kind type with its own JSON encoding, which the
// fast path must leave to json.Marshal.
type quotedKind string

func (q quotedKind) MarshalJSON() ([]byte, error) { return []byte(`"q:` + string(q) + `"`), nil }

// textKind is a string-kind type with a text encoding.
type textKind string

func (k textKind) MarshalText() ([]byte, error) { return []byte("t:" + string(k)), nil }

type plainInt int16

type stringer struct{}

func (stringer) String() string { return "<stringer & co>" }

// TestEventMatchesMarshal: every event line is byte for byte the line
// json.Marshal would build, whichever way a value is encoded: the direct
// path (plain strings, string kinds, integers, booleans) or the fallback
// (strings that must be escaped, errors, Stringers, durations, and the
// rest).
func TestEventMatchesMarshal(t *testing.T) {
	tests := []struct {
		name  string
		key   any
		value any
	}{
		{"plain string", "job", "j000123"},
		{"empty string", "job", ""},
		{"string kind", "state", jobState("running")},
		{"quote", "msg", `say "hi"`},
		{"backslash", "path", `C:\dir`},
		{"control character", "msg", "tab\tnewline\n"},
		{"HTML characters", "msg", "<a href='x'>&</a>"},
		{"non-ASCII", "name", "naïve"},
		{"line separator", "msg", "a\u2028b"},
		{"invalid UTF-8", "msg", "bad\xffbyte"},
		{"DEL", "msg", "a\x7fb"},
		{"escaped string kind", "state", jobState("<x>")},
		{"string kind with MarshalJSON", "state", quotedKind("x")},
		{"string kind with MarshalText", "state", textKind("x")},
		{"int", "n", 42},
		{"negative int64", "n", int64(-1 << 62)},
		{"int8", "n", int8(-7)},
		{"named int16", "n", plainInt(300)},
		{"uint64", "n", uint64(1<<64 - 1)},
		{"uint8", "n", uint8(255)},
		{"bool", "ok", true},
		{"false", "ok", false},
		{"error", "err", errors.New(`dial "x": <refused>`)},
		{"nil error", "err", error(nil)},
		{"Stringer", "who", stringer{}},
		{"duration", "backoff", 1500 * time.Millisecond},
		{"float", "best", 0.1},
		{"large float", "best", 1e21},
		{"slice", "ids", []string{"a", "b"}},
		{"map", "m", map[string]int{"b": 2, "a": 1}},
		{"non-string key", 7, "seven"},
		{"non-string key escaped", 1.5, "x"},
	}
	stamp := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			l := NewLogger(&buf)
			l.now = func() time.Time { return stamp }
			l.Event("job_state", tt.key, tt.value)
			want := marshalLine(t, stamp, "job_state", keyString(tt.key), eventValue(tt.value))
			if got := buf.String(); got != want {
				t.Errorf("line\n%s\nwant (json.Marshal)\n%s", got, want)
			}
		})
	}
}

// marshalLine builds an event line with json.Marshal for every field.
func marshalLine(t *testing.T, stamp time.Time, typ, key string, value any) string {
	t.Helper()
	m := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return `{"ts":` + m(stamp.UTC().Format(time.RFC3339Nano)) + `,"event":` + m(typ) + `,` + m(key) + `:` + m(value) + "}\n"
}
