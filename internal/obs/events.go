package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Logger is the structured event log: one JSON object per line (NDJSON),
// each with a "ts" timestamp and an "event" type followed by the caller's
// key/value fields.
//
// A nil *Logger is valid and discards everything, so instrumented code
// never needs a nil check. Writes are serialized by a mutex; lines are
// written with a single Write call so concurrent loggers sharing a pipe
// (optd and its workers on stderr) do not interleave mid-line.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // test hook; nil = time.Now
	buf bytes.Buffer
}

// NewLogger returns a Logger writing NDJSON lines to w. A nil w yields a
// discard-everything logger (same as a nil *Logger).
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{w: w}
}

// Event emits one structured event. typ names the event ("worker_join",
// "job_state", ...); kv is alternating key, value pairs. Non-string keys
// and a trailing odd value are tolerated (rendered via fmt) rather than
// dropped, so a malformed call site still leaves evidence in the log.
// Values marshal as JSON; errors and fmt.Stringers render as strings.
func (l *Logger) Event(typ string, kv ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	b := &l.buf
	b.Reset()
	b.WriteString(`{"ts":`)
	writeJSON(b, now().UTC().Format(time.RFC3339Nano))
	b.WriteString(`,"event":`)
	writeJSON(b, typ)
	for i := 0; i < len(kv); i += 2 {
		b.WriteByte(',')
		writeJSON(b, keyString(kv[i]))
		b.WriteByte(':')
		if i+1 < len(kv) {
			writeJSON(b, eventValue(kv[i+1]))
		} else {
			b.WriteString("null")
		}
	}
	b.WriteString("}\n")
	l.w.Write(b.Bytes())
}

// keyString coerces an event key to a string.
func keyString(k any) string {
	if s, ok := k.(string); ok {
		return s
	}
	return fmt.Sprint(k)
}

// eventValue maps awkward-to-marshal values (errors, Stringers) to
// strings and passes everything else through to the JSON encoder.
func eventValue(v any) any {
	switch t := v.(type) {
	case error:
		return t.Error()
	case fmt.Stringer:
		return t.String()
	case time.Duration:
		return t.String()
	}
	return v
}

// writeJSON appends the JSON encoding of v, falling back to a quoted
// fmt rendering if v does not marshal (a logger must not drop events
// over an unmarshalable field).
func writeJSON(b *bytes.Buffer, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	b.Write(enc)
}
