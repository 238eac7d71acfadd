package obs

import (
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
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
	buf []byte
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
// Values encode as json.Marshal would; errors and fmt.Stringers render as
// strings.
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
	b := append(l.buf[:0], `{"ts":"`...)
	b = now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","event":`...)
	b = appendString(b, typ)
	for i := 0; i < len(kv); i += 2 {
		b = append(b, ',')
		b = appendString(b, keyString(kv[i]))
		b = append(b, ':')
		if i+1 < len(kv) {
			b = appendJSON(b, eventValue(kv[i+1]))
		} else {
			b = append(b, "null"...)
		}
	}
	b = append(b, "}\n"...)
	l.buf = b
	l.w.Write(b)
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

// appendJSON appends the JSON encoding of v, byte for byte what json.Marshal
// writes. Strings that need no escaping, values of string kind, integers and
// booleans are encoded here; everything else goes through json.Marshal,
// falling back to a quoted fmt rendering if v does not marshal (a logger
// must not drop events over an unmarshalable field).
func appendJSON(b []byte, v any) []byte {
	switch t := v.(type) {
	case string:
		return appendString(b, t)
	case json.Marshaler, encoding.TextMarshaler:
		return appendMarshal(b, v)
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.String:
		return appendString(b, rv.String())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, rv.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, rv.Uint(), 10)
	case reflect.Bool:
		return strconv.AppendBool(b, rv.Bool())
	}
	return appendMarshal(b, v)
}

// appendString quotes s, leaving to json.Marshal any string with a byte
// outside printable ASCII (control characters, invalid UTF-8, U+2028 and
// U+2029 are rewritten) or one it escapes: quotes, backslashes and HTML's <,
// > and &.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshal(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendMarshal(b []byte, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return append(b, enc...)
}
