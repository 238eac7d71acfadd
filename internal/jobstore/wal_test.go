package jobstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// walOp is one scripted operation for the crash-point tests.
type walOp struct {
	op      byte
	id      string
	payload []byte
}

// crashScript is the op sequence the crash-point enumeration replays: it
// exercises put, overwrite and delete so the state changes at every
// record boundary.
func crashScript() []walOp {
	return []walOp{
		{opPut, "j000001", []byte("spec-only")},
		{opPut, "j000002", []byte("another job")},
		{opPut, "j000001", []byte("now with a snapshot attached")},
		{opDelete, "j000002", nil},
		{opPut, "j000003", bytes.Repeat([]byte("x"), 300)},
		{opDelete, "j000001", nil},
		{opPut, "j000002", []byte("resubmitted")},
	}
}

// applyScript returns the live state after the first n ops.
func applyScript(ops []walOp, n int) map[string][]byte {
	state := map[string][]byte{}
	for _, o := range ops[:n] {
		if o.op == opPut {
			state[o.id] = o.payload
		} else {
			delete(state, o.id)
		}
	}
	return state
}

func writeWAL(t *testing.T, dir string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, walFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func expectState(t *testing.T, st Store, want map[string][]byte) {
	t.Helper()
	recs, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	got := map[string][]byte{}
	for _, r := range recs {
		got[r.ID] = r.Payload
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records %v, want %d", len(got), keys(got), len(want))
	}
	for id, p := range want {
		if !bytes.Equal(got[id], p) {
			t.Fatalf("record %q = %q, want %q", id, got[id], p)
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	//optlint:nondeterministic-ok diagnostic output only
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWALCrashPointEnumeration is the satellite crash-point test: it cuts
// the log at EVERY byte offset — not just record boundaries — and requires
// that opening the prefix recovers exactly the ops whose records are fully
// contained, that the torn tail is truncated, and that the store keeps
// accepting writes afterwards. This is the precise meaning of "fsync
// before acknowledge": an acknowledged op is one whose record is complete
// on disk, and nothing else may survive.
func TestWALCrashPointEnumeration(t *testing.T) {
	ops := crashScript()
	// Encode the full log and record each op's end offset.
	raw := []byte(walMagic)
	ends := make([]int, 0, len(ops))
	for _, o := range ops {
		raw = appendWALRecord(raw, o.op, o.id, o.payload)
		ends = append(ends, len(raw))
	}
	// completeOps(cut) = number of ops fully contained in raw[:cut].
	completeOps := func(cut int) int {
		n := 0
		for _, e := range ends {
			if e <= cut {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(raw); cut++ {
		dir := t.TempDir()
		writeWAL(t, dir, raw[:cut])
		st, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("cut=%d: OpenWAL: %v", cut, err)
		}
		want := applyScript(ops, completeOps(cut))
		expectState(t, st, want)
		if err := st.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}

		// The torn tail must be gone from disk: a second open sees a clean
		// log with the same state.
		data, err := os.ReadFile(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if _, goodLen, damage := replayWAL(data[len(walMagic):]); damage != nil || goodLen != len(data)-len(walMagic) {
			t.Fatalf("cut=%d: log still damaged after recovery: goodLen=%d len=%d damage=%v",
				cut, goodLen, len(data)-len(walMagic), damage)
		}

		// And the recovered store accepts and persists new writes.
		st2, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if err := st2.Put("post", []byte("post-crash")); err != nil {
			t.Fatalf("cut=%d: Put after recovery: %v", cut, err)
		}
		want["post"] = []byte("post-crash")
		expectState(t, st2, want)
		if err := st2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestWALMidFileCorruption pins the bounded-trust policy: replay stops at
// the first damaged record, keeps everything before it, and truncates the
// rest — corruption in the middle of the log cannot resurrect or invent
// later state.
func TestWALMidFileCorruption(t *testing.T) {
	ops := crashScript()
	raw := []byte(walMagic)
	var firstEnd int
	for i, o := range ops {
		raw = appendWALRecord(raw, o.op, o.id, o.payload)
		if i == 0 {
			firstEnd = len(raw)
		}
	}
	// Flip one payload byte inside the second record: its CRC check fails,
	// so only the first op survives.
	raw[firstEnd+walHeaderLen+walBodyMin+2] ^= 0xFF
	dir := t.TempDir()
	writeWAL(t, dir, raw)
	st, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer st.Close()
	expectState(t, st, applyScript(ops, 1))
}

// TestWALBadMagic: a file that is not a WAL (rather than a torn one) must
// be refused, not silently clobbered.
func TestWALBadMagic(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, []byte("NOTAWAL0-and-then-some"))
	if _, err := OpenWAL(dir); err == nil {
		t.Fatal("OpenWAL accepted a non-WAL file")
	}
	// The bogus file must still be there untouched.
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil || string(data) != "NOTAWAL0-and-then-some" {
		t.Fatalf("non-WAL file was modified: %q, %v", data, err)
	}
}

// TestWALTornMagic: a crash during the very first create can tear the
// magic itself; nothing was ever acknowledged, so the store restarts
// empty instead of refusing to open.
func TestWALTornMagic(t *testing.T) {
	for cut := 0; cut < len(walMagic); cut++ {
		dir := t.TempDir()
		writeWAL(t, dir, []byte(walMagic[:cut]))
		st, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("cut=%d: OpenWAL: %v", cut, err)
		}
		if err := st.Put("a", []byte("x")); err != nil {
			t.Fatalf("cut=%d: Put: %v", cut, err)
		}
		expectState(t, st, map[string][]byte{"a": []byte("x")})
		st.Close()
	}
}

// TestWALCompaction: overwriting the same records until superseded bytes
// dominate must shrink the log without changing the visible state, and
// the compacted log must replay identically after reopen.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 64*1024)
	// ~40 overwrites of 64 KiB ≈ 2.5 MiB garbage against 64 KiB live —
	// well past the compaction threshold.
	for i := 0; i < 40; i++ {
		if err := st.Put("hot", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("cold", []byte("small")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Raw appends total ~2.5 MiB. Compaction keeps residual garbage under
	// its 1 MiB floor, so the surviving log must stay well below the raw
	// size: floor + live content + slack.
	if max := int64(compactFloor + 3*64*1024); fi.Size() > max {
		t.Fatalf("log is %d bytes after heavy overwrite (max %d); compaction did not run", fi.Size(), max)
	}
	want := map[string][]byte{"hot": payload, "cold": []byte("small")}
	expectState(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	expectState(t, st2, want)
}

// TestWALPayloadCap: a payload over the record cap is refused up front —
// the cap is what keeps hostile length prefixes from over-allocating at
// replay, so the writer must never produce one.
func TestWALPayloadCap(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("big", make([]byte, maxWALPayload+1)); err == nil {
		t.Fatal("Put accepted a payload over the WAL record cap")
	}
	expectState(t, st, map[string][]byte{})
}

// TestWALRecordSizeAccounting pins encodedWALSize against the real
// encoder — the compaction trigger arithmetic depends on it.
func TestWALRecordSizeAccounting(t *testing.T) {
	for _, tc := range []struct {
		id      string
		payload []byte
	}{
		{"a", nil},
		{"j000001", []byte("x")},
		{"some-long-id.spec", bytes.Repeat([]byte("y"), 1000)},
	} {
		got := len(appendWALRecord(nil, opPut, tc.id, tc.payload))
		if want := encodedWALSize(tc.id, tc.payload); got != want {
			t.Errorf("encodedWALSize(%q, %d bytes) = %d, real record is %d", tc.id, len(tc.payload), want, got)
		}
	}
}

// TestWALDeleteRecordRejectsPayload pins the codec-level invariant used
// by the fuzz target's corruption checks.
func TestWALDeleteRecordRejectsPayload(t *testing.T) {
	rec := appendWALRecord(nil, opDelete, "id", nil)
	if _, _, _, _, err := decodeWALRecord(rec); err != nil {
		t.Fatalf("clean delete record rejected: %v", err)
	}
	bad := appendWALRecord(nil, opDelete, "id", []byte("junk"))
	if _, _, _, _, err := decodeWALRecord(bad); err == nil {
		t.Fatal("delete record with payload accepted")
	}
	if _, _, _, _, err := decodeWALRecord(appendWALRecord(nil, 99, "id", nil)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func BenchmarkWALPut(b *testing.B) {
	st, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	payload := bytes.Repeat([]byte("s"), 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(fmt.Sprintf("j%06d", i%1024), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWALFault injects one fault per row through the file seam. Each row
// starts from a durable "a", faults the write of "b", then writes "c" and
// reopens. A failed write must be cut back to the last record boundary,
// or "c" lands behind the torn bytes and replay drops it although its Put
// returned nil. A failed fsync, or a failed cut, poisons the store: every
// later write, compaction and Close returns the error, so nothing is
// acknowledged behind a possible hole.
func TestWALFault(t *testing.T) {
	tests := []struct {
		name     string
		arm      func(f *faultFile)
		lazy     bool            // fault a PutLazy instead of a Put
		poisoned bool            // later writes must fail
		want     map[string]bool // records after a reopen
	}{
		{"short write on Put", func(f *faultFile) { f.shortWrite = true }, false, false,
			map[string]bool{"a": true, "c": true}},
		{"failed write on PutLazy", func(f *faultFile) { f.failWrite = true }, true, false,
			map[string]bool{"a": true, "c": true}},
		// b's record reached the file before its fsync failed, so it replays.
		{"failed fsync on Put", func(f *faultFile) { f.failSync = true }, false, true,
			map[string]bool{"a": true, "b": true}},
		{"failed truncate after a failed write", func(f *faultFile) { f.failWrite, f.failTruncate = true, true }, false, true,
			map[string]bool{"a": true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			latest := withFaultFiles(t)
			dir := t.TempDir()
			st, err := OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put("a", []byte("payload-a")); err != nil {
				t.Fatalf("Put a: %v", err)
			}
			tt.arm(*latest)
			write := st.Put
			if tt.lazy {
				write = st.PutLazy
			}
			if err := write("b", []byte("payload-b")); err == nil {
				t.Fatal("the faulted write of b returned nil")
			}
			errC := st.Put("c", []byte("payload-c"))
			if tt.poisoned {
				if !errors.Is(errC, errInjected) {
					t.Fatalf("Put c on a poisoned store = %v, want the sticky error", errC)
				}
				for name, err := range map[string]error{
					"PutLazy": st.PutLazy("d", []byte("payload-d")),
					"Delete":  st.Delete("a"),
					"compact": st.compact(),
				} {
					if !errors.Is(err, errInjected) {
						t.Errorf("%s on a poisoned store = %v, want the sticky error", name, err)
					}
				}
				if err := st.Close(); !errors.Is(err, errInjected) {
					t.Errorf("Close of a poisoned store = %v, want the sticky error", err)
				}
			} else {
				if errC != nil {
					t.Fatalf("Put c after a cut-back write: %v", errC)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}

			st2, err := OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			recs, err := st2.List()
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, r := range recs {
				got[r.ID] = true
			}
			if len(got) != len(tt.want) {
				t.Fatalf("after reopen: records %v, want %v", got, tt.want)
			}
			for id := range tt.want {
				if !got[id] {
					t.Fatalf("after reopen: records %v, want %v", got, tt.want)
				}
			}
		})
	}
}
