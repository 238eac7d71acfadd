package dist

// The binary wire codec: every frame of a session after the JSON hello/welcome
// handshake (see proto.go). Both codecs share the outer framing — a 4-byte
// big-endian length prefix bounded by MaxFrame, read incrementally (header
// first, then exactly the announced body) — so a session switches codec after
// the welcome without resynchronizing.
//
// Binary body layout (all integers big-endian):
//
//	body     := type:u8 payload
//	type     : 3 heartbeat, 4 dispatch, 5 results (1 and 2 were the
//	           retired binary hello/welcome and are rejected)
//	heartbeat:= (empty)
//	dispatch := count:u32 tasks:(count × task)
//	task     := id:u64 objective:str16 nx:u16 x:(nx × f64) seed:u64 skip:u32 dt:f64
//	results  := count:u32 results:(count × result)
//	result   := id:u64 kind:u8; kind 0: z:f64 f:f64, kind 1: err:str16
//	str16    := len:u16 bytes (UTF-8)
//	f64      := IEEE-754 bits; non-finite values are rejected on encode AND
//	            decode, preserving the JSON boundary's cannot-carry-non-finite
//	            guarantee wire-format-independently
//
// Decoding never allocates more than the frame can justify: every count is
// validated against the bytes remaining at its minimum element size before a
// slice is sized from it, so a corrupt or hostile frame errors instead of
// allocating gigabytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary frame type bytes.
const (
	binHeartbeat byte = 3
	binDispatch  byte = 4
	binResults   byte = 5
)

// Minimum encoded sizes, used to bound slice counts against the bytes
// actually present before allocating.
const (
	binTaskMinSize   = 8 + 2 + 2 + 8 + 4 + 8 // id, objective len, nx, seed, skip, dt
	binResultMinSize = 8 + 1 + 2             // id, kind, shortest branch (error len)
	maxStr16         = 1<<16 - 1
)

var errBinNonFinite = errors.New("dist: binary frame carries a non-finite float")

// appendBinaryFrame appends one length-prefixed binary frame encoding m to
// buf and returns the extended slice. Appending into a caller-reused buffer
// is what makes the per-result send path allocation-free in steady state.
func appendBinaryFrame(buf []byte, m *Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix backfilled below
	var err error
	switch m.Type {
	case TypeHeartbeat:
		buf = append(buf, binHeartbeat)
	case TypeDispatch:
		if m.Dispatch == nil {
			return buf[:start], fmt.Errorf("dist: dispatch frame without body")
		}
		buf = append(buf, binDispatch)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Dispatch.Tasks)))
		for i := range m.Dispatch.Tasks {
			t := &m.Dispatch.Tasks[i]
			buf = binary.BigEndian.AppendUint64(buf, t.ID)
			if buf, err = appendStr16(buf, t.Objective); err != nil {
				return buf[:start], err
			}
			if len(t.X) > maxStr16 {
				return buf[:start], fmt.Errorf("dist: task %d has %d coordinates", t.ID, len(t.X))
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.X)))
			for _, v := range t.X {
				if buf, err = appendF64(buf, v); err != nil {
					return buf[:start], err
				}
			}
			buf = binary.BigEndian.AppendUint64(buf, uint64(t.Seed))
			if t.Skip < 0 {
				return buf[:start], fmt.Errorf("dist: task %d has negative skip %d", t.ID, t.Skip)
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(t.Skip))
			if buf, err = appendF64(buf, t.Dt); err != nil {
				return buf[:start], err
			}
		}
	case TypeResults:
		if m.Results == nil {
			return buf[:start], fmt.Errorf("dist: results frame without body")
		}
		buf = append(buf, binResults)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Results.Results)))
		for i := range m.Results.Results {
			r := &m.Results.Results[i]
			buf = binary.BigEndian.AppendUint64(buf, r.ID)
			if r.Err != "" {
				buf = append(buf, 1)
				msg := r.Err
				if len(msg) > maxStr16 {
					msg = msg[:maxStr16] // a truncated error still fails the batch loudly
				}
				if buf, err = appendStr16(buf, msg); err != nil {
					return buf[:start], err
				}
				continue
			}
			buf = append(buf, 0)
			if buf, err = appendF64(buf, r.Z); err != nil {
				return buf[:start], err
			}
			if buf, err = appendF64(buf, r.F); err != nil {
				return buf[:start], err
			}
		}
	default:
		return buf[:start], fmt.Errorf("dist: unknown message type %q", m.Type)
	}
	body := len(buf) - start - 4
	if body > MaxFrame {
		return buf[:start], fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", body, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
	return buf, nil
}

// appendStr16 appends a length-prefixed string (u16 length + bytes).
func appendStr16(buf []byte, s string) ([]byte, error) {
	if len(s) > maxStr16 {
		return buf, fmt.Errorf("dist: string of %d bytes exceeds the u16 length prefix", len(s))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

// appendF64 appends the IEEE-754 bits of a finite float64.
//
//optlint:floatboundary
func appendF64(buf []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return buf, errBinNonFinite
	}
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v)), nil
}

// binReader is a bounds-checked cursor over one binary frame body.
type binReader struct {
	b   []byte
	off int
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) take(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, io.ErrUnexpectedEOF
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *binReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *binReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *binReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *binReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// f64 decodes one IEEE-754 value, rejecting non-finite bit patterns.
//
//optlint:floatboundary
func (r *binReader) f64() (float64, error) {
	bits, err := r.u64()
	if err != nil {
		return 0, err
	}
	v := math.Float64frombits(bits)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errBinNonFinite
	}
	return v, nil
}

// str16 reads a length-prefixed string, copying it out of the (reused) frame
// buffer.
func (r *binReader) str16() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads a u32 element count and validates it against the bytes left at
// the element's minimum encoded size, so a corrupt count cannot drive a huge
// allocation.
func (r *binReader) count(minSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minSize) > int64(r.remaining()) {
		return 0, fmt.Errorf("dist: count %d exceeds the %d bytes remaining in the frame", n, r.remaining())
	}
	return int(n), nil
}

// decodeBinaryFrame decodes one binary frame body (the bytes after the length
// prefix) into m. Strings and slices are copied out, so the caller may reuse
// body.
func decodeBinaryFrame(body []byte, m *Message) error {
	*m = Message{}
	r := &binReader{b: body}
	typ, err := r.u8()
	if err != nil {
		return fmt.Errorf("dist: empty binary frame")
	}
	switch typ {
	case binHeartbeat:
		m.Type = TypeHeartbeat
	case binDispatch:
		n, err := r.count(binTaskMinSize)
		if err != nil {
			return decodeErr(err)
		}
		d := &Dispatch{}
		if n > 0 {
			d.Tasks = make([]Task, n)
		}
		for i := 0; i < n; i++ {
			t := &d.Tasks[i]
			if t.ID, err = r.u64(); err != nil {
				return decodeErr(err)
			}
			if t.Objective, err = r.str16(); err != nil {
				return decodeErr(err)
			}
			nx, err := r.u16()
			if err != nil {
				return decodeErr(err)
			}
			if int(nx)*8 > r.remaining() {
				return fmt.Errorf("dist: %d coordinates exceed the frame", nx)
			}
			if nx > 0 {
				t.X = make([]float64, nx)
				for j := range t.X {
					if t.X[j], err = r.f64(); err != nil {
						return decodeErr(err)
					}
				}
			}
			seed, err := r.u64()
			if err != nil {
				return decodeErr(err)
			}
			t.Seed = int64(seed)
			skip, err := r.u32()
			if err != nil {
				return decodeErr(err)
			}
			if skip > math.MaxInt32 {
				return fmt.Errorf("dist: skip %d overflows", skip)
			}
			t.Skip = int(skip)
			if t.Dt, err = r.f64(); err != nil {
				return decodeErr(err)
			}
		}
		m.Type, m.Dispatch = TypeDispatch, d
	case binResults:
		n, err := r.count(binResultMinSize)
		if err != nil {
			return decodeErr(err)
		}
		rs := &Results{}
		if n > 0 {
			rs.Results = make([]TaskResult, n)
		}
		for i := 0; i < n; i++ {
			tr := &rs.Results[i]
			if tr.ID, err = r.u64(); err != nil {
				return decodeErr(err)
			}
			kind, err := r.u8()
			if err != nil {
				return decodeErr(err)
			}
			switch kind {
			case 0:
				if tr.Z, err = r.f64(); err != nil {
					return decodeErr(err)
				}
				if tr.F, err = r.f64(); err != nil {
					return decodeErr(err)
				}
			case 1:
				if tr.Err, err = r.str16(); err != nil {
					return decodeErr(err)
				}
				if tr.Err == "" {
					return fmt.Errorf("dist: error result %d with empty message", tr.ID)
				}
			default:
				return fmt.Errorf("dist: unknown result kind %d", kind)
			}
		}
		m.Type, m.Results = TypeResults, rs
	default:
		return fmt.Errorf("dist: unknown binary frame type %d", typ)
	}
	if r.remaining() != 0 {
		*m = Message{}
		return fmt.Errorf("dist: %d trailing bytes after the frame body", r.remaining())
	}
	return nil
}

// decodeErr normalizes binReader underflows into frame-decode errors.
func decodeErr(err error) error {
	if err == io.ErrUnexpectedEOF {
		return fmt.Errorf("dist: truncated binary frame body")
	}
	return err
}

// FrameWriter writes frames in one codec, reusing a single encode
// buffer across frames — the per-result send path of a binary session
// allocates nothing in steady state. Callers serialize writes (the
// coordinator's per-worker sender goroutine, the worker's send mutex).
type FrameWriter struct {
	w     io.Writer
	proto Proto
	buf   []byte
}

// NewFrameWriter builds a writer for the given codec.
func NewFrameWriter(w io.Writer, p Proto) *FrameWriter {
	return &FrameWriter{w: w, proto: p}
}

// Write encodes and writes one frame (prefix and body in a single Write
// call, like WriteFrame).
func (fw *FrameWriter) Write(m *Message) error {
	if fw.proto != ProtoBinary {
		return WriteFrame(fw.w, m)
	}
	buf, err := appendBinaryFrame(fw.buf[:0], m)
	if err != nil {
		return err
	}
	fw.buf = buf
	if _, err = fw.w.Write(buf); err != nil {
		return err
	}
	countFrameTx(ProtoBinary, len(buf))
	return nil
}

// FrameReader reads frames in one codec, reusing a single body
// buffer across frames (decoded messages copy what they keep).
type FrameReader struct {
	r     io.Reader
	proto Proto
	hdr   [4]byte
	buf   []byte
}

// NewFrameReader builds a reader for the given codec.
func NewFrameReader(r io.Reader, p Proto) *FrameReader {
	return &FrameReader{r: r, proto: p}
}

// Read decodes the next frame into m. Like ReadFrame it returns io.EOF on a
// clean close before the prefix and io.ErrUnexpectedEOF on a truncated frame;
// the length prefix is validated against MaxFrame before the body buffer is
// sized from it.
func (fr *FrameReader) Read(m *Message) error {
	if fr.proto != ProtoBinary {
		return ReadFrame(fr.r, m)
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 {
		return fmt.Errorf("dist: empty binary frame")
	}
	if n > MaxFrame {
		return fmt.Errorf("dist: frame length %d exceeds the %d-byte limit", n, MaxFrame)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := decodeBinaryFrame(body, m); err != nil {
		return err
	}
	countFrameRx(ProtoBinary, 4+int(n))
	return nil
}
