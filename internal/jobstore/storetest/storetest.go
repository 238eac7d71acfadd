// Package storetest is the conformance suite every jobstore.Store
// implementation must pass. It pins the contract the jobs manager relies
// on — durable round-trips, lazy writes made durable by a later Sync, Put
// or Close, sorted listing, recovery of the on-disk image at every record
// boundary of a PutLazy/Delete/Sync script, survival of the crash
// artifacts each store's write discipline permits, and safety under
// concurrent writers — so a new store earns trust by passing one shared
// suite instead of re-deriving the rules.
//
// Store-specific damage models (byte-level crash-point enumeration for the
// WAL, temp-file orphans for the file layout) stay in the store's own
// tests; the Tear hook lets each store plug its "legal" torn-write
// artifact into the shared recovery checks. Faults (faults.go) is the
// other half of the package: a wrapper that fails or holds chosen store
// calls, for testing the layers above a store.
package storetest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/jobstore"
)

// Harness adapts one store implementation to the suite.
type Harness struct {
	// Open opens (or reopens) the store rooted at dir. The suite calls it
	// repeatedly on the same directory to check durability across close.
	Open func(dir string) (jobstore.Store, error)
	// Tear simulates the worst crash artifact the store's write discipline
	// permits mid-update (a torn tail, an orphaned temp file) in a closed
	// store's directory. The suite then reopens and requires the
	// previously-acknowledged records intact. Optional.
	Tear func(t *testing.T, dir string)
}

// Run executes the conformance suite against h.
func Run(t *testing.T, h Harness) {
	t.Run("RoundTrip", func(sub *testing.T) { testRoundTrip(sub, h) })
	t.Run("ListSorted", func(sub *testing.T) { testListSorted(sub, h) })
	t.Run("Payloads", func(sub *testing.T) { testPayloads(sub, h) })
	t.Run("InvalidIDs", func(sub *testing.T) { testInvalidIDs(sub, h) })
	t.Run("ReopenPersists", func(sub *testing.T) { testReopenPersists(sub, h) })
	t.Run("LazyThenDurable", func(sub *testing.T) { testLazyThenDurable(sub, h) })
	t.Run("LazyOnClose", func(sub *testing.T) { testLazyOnClose(sub, h) })
	t.Run("Sync", func(sub *testing.T) { testSync(sub, h) })
	t.Run("CrashPoints", func(sub *testing.T) { testCrashPoints(sub, h) })
	t.Run("TornWriteRecovers", func(sub *testing.T) { testTornWrite(sub, h) })
	t.Run("ConcurrentWriters", func(sub *testing.T) { testConcurrentWriters(sub, h) })
	t.Run("ConcurrentSameID", func(sub *testing.T) { testConcurrentSameID(sub, h) })
	t.Run("Closed", func(sub *testing.T) { testClosed(sub, h) })
}

func open(t *testing.T, h Harness, dir string) jobstore.Store {
	t.Helper()
	st, err := h.Open(dir)
	if err != nil {
		t.Fatalf("open store at %s: %v", dir, err)
	}
	return st
}

// expect asserts the store lists exactly want (id → payload).
func expect(t *testing.T, st jobstore.Store, want map[string][]byte) {
	t.Helper()
	recs, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(recs) != len(want) {
		t.Fatalf("List returned %d records, want %d (%v)", len(recs), len(want), recs)
	}
	for i, r := range recs {
		if i > 0 && recs[i-1].ID >= r.ID {
			t.Fatalf("List not sorted: %q before %q", recs[i-1].ID, r.ID)
		}
		p, ok := want[r.ID]
		if !ok {
			t.Fatalf("List returned unexpected id %q", r.ID)
		}
		if !bytes.Equal(r.Payload, p) {
			t.Fatalf("record %q payload = %q, want %q", r.ID, r.Payload, p)
		}
	}
}

func testRoundTrip(t *testing.T, h Harness) {
	st := open(t, h, t.TempDir())
	defer st.Close()
	if err := st.Put("a", []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Put("b", []byte("two")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	expect(t, st, map[string][]byte{"a": []byte("one"), "b": []byte("two")})

	// Overwrite replaces, delete removes, deleting an absent id is a no-op.
	if err := st.Put("a", []byte("one-v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := st.Delete("b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := st.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of absent id must succeed, got %v", err)
	}
	expect(t, st, map[string][]byte{"a": []byte("one-v2")})
	if st.Kind() == "" {
		t.Fatal("Kind must name the implementation")
	}
}

func testListSorted(t *testing.T, h Harness) {
	st := open(t, h, t.TempDir())
	defer st.Close()
	want := map[string][]byte{}
	// Insert in deliberately unsorted order.
	for _, id := range []string{"j000010", "j000002", "zz", "A", "j000001"} {
		payload := []byte("p-" + id)
		if err := st.Put(id, payload); err != nil {
			t.Fatalf("Put(%q): %v", id, err)
		}
		want[id] = payload
	}
	expect(t, st, want)
}

func testPayloads(t *testing.T, h Harness) {
	st := open(t, h, t.TempDir())
	defer st.Close()
	large := bytes.Repeat([]byte("0123456789abcdef"), 64*1024) // 1 MiB
	want := map[string][]byte{
		"empty": {},
		"nilpl": nil,
		"large": large,
		"bin":   {0, 1, 2, 0xFF, '\n', 0},
	}
	for id, p := range want {
		if err := st.Put(id, p); err != nil {
			t.Fatalf("Put(%q, %d bytes): %v", id, len(p), err)
		}
	}
	recs, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if !bytes.Equal(r.Payload, want[r.ID]) {
			t.Fatalf("record %q: %d bytes, want %d", r.ID, len(r.Payload), len(want[r.ID]))
		}
	}
}

func testInvalidIDs(t *testing.T, h Harness) {
	st := open(t, h, t.TempDir())
	defer st.Close()
	bad := []string{
		"",
		".hidden",
		"..",
		"a/b",
		"a\\b",
		"sp ace",
		"nul\x00",
		strings.Repeat("x", 129),
	}
	for _, id := range bad {
		if err := st.Put(id, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid id", id)
		}
		if err := st.PutLazy(id, []byte("x")); err == nil {
			t.Errorf("PutLazy(%q) accepted an invalid id", id)
		}
		if err := st.Delete(id); err == nil {
			t.Errorf("Delete(%q) accepted an invalid id", id)
		}
	}
	// The boundary cases that must be accepted.
	for _, id := range []string{"a", "j000001.spec", "A-Z_0.9", strings.Repeat("x", 128)} {
		if err := st.Put(id, []byte("x")); err != nil {
			t.Errorf("Put(%q) rejected a valid id: %v", id, err)
		}
	}
}

func testReopenPersists(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("j%06d", i)
		payload := []byte(strings.Repeat(id, i+1))
		if err := st.Put(id, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[id] = payload
	}
	// Overwrites and deletes must also survive reopen.
	want["j000003"] = []byte("rewritten")
	if err := st.Put("j000003", want["j000003"]); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Delete("j000007"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "j000007")
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := open(t, h, dir)
	defer st2.Close()
	expect(t, st2, want)
}

// testLazyThenDurable: a durable Put makes the lazy writes before it
// durable too, so both survive a reopen.
func testLazyThenDurable(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	if err := st.Put("a", []byte("admitted")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.PutLazy("a", []byte("snapshot")); err != nil {
		t.Fatalf("PutLazy: %v", err)
	}
	if err := st.Put("b", []byte("admitted-b")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	want := map[string][]byte{"a": []byte("snapshot"), "b": []byte("admitted-b")}
	expect(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := open(t, h, dir)
	defer st2.Close()
	expect(t, st2, want)
}

// testLazyOnClose: Close makes the pending lazy writes durable.
func testLazyOnClose(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	if err := st.PutLazy("a", []byte("lazy")); err != nil {
		t.Fatalf("PutLazy: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := open(t, h, dir)
	defer st2.Close()
	expect(t, st2, map[string][]byte{"a": []byte("lazy")})
}

// testSync: Sync makes the lazy writes before it durable and is a no-op
// with nothing pending.
func testSync(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	for _, id := range []string{"a", "b"} {
		if err := st.PutLazy(id, []byte("lazy-"+id)); err != nil {
			t.Fatalf("PutLazy: %v", err)
		}
	}
	if err := st.Delete("b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Sync(); err != nil {
			t.Fatalf("Sync %d: %v", i, err)
		}
	}
	want := map[string][]byte{"a": []byte("lazy-a")}
	expect(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := open(t, h, dir)
	defer st2.Close()
	expect(t, st2, want)
}

// crashStep is one step of the crash-point script: a lazy put, a delete,
// a Sync, or a durable Put.
type crashStep struct {
	op      string // "lazy", "delete", "sync", "put"
	id      string
	payload string
}

// crashScript is the jobs layer's write pattern: admissions, snapshots
// and completion deletes, with barriers between some of them.
var crashScript = []crashStep{
	{op: "put", id: "j000001", payload: "spec-1"},
	{op: "lazy", id: "j000002", payload: "spec-2"},
	{op: "lazy", id: "j000001", payload: "snapshot-1"},
	{op: "sync"},
	{op: "delete", id: "j000002"},
	{op: "lazy", id: "j000003", payload: strings.Repeat("x", 300)},
	{op: "put", id: "j000004", payload: "spec-4"},
	{op: "delete", id: "j000001"},
	{op: "lazy", id: "j000003", payload: "snapshot-3"},
	{op: "sync"},
	{op: "lazy", id: "j000002", payload: "resubmitted"},
	{op: "delete", id: "never-existed"},
}

// testCrashPoints runs crashScript and copies the store's directory after
// every step, with the store still open: the copy is what a crash at that
// record boundary leaves on disk when nothing is lost. Each copy must
// reopen to exactly the state after that step — and, when the store has a
// Tear model, still after tearing it — and accept writes afterwards.
// Losing the writes after the last Sync is each store's own damage model.
func testCrashPoints(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	state := map[string][]byte{}
	images := []string{copyDir(t, dir)}
	wants := []map[string][]byte{clone(state)}
	for i, s := range crashScript {
		var err error
		switch s.op {
		case "lazy":
			err = st.PutLazy(s.id, []byte(s.payload))
			state[s.id] = []byte(s.payload)
		case "put":
			err = st.Put(s.id, []byte(s.payload))
			state[s.id] = []byte(s.payload)
		case "delete":
			err = st.Delete(s.id)
			delete(state, s.id)
		case "sync":
			err = st.Sync()
		}
		if err != nil {
			t.Fatalf("step %d (%s %s): %v", i, s.op, s.id, err)
		}
		images = append(images, copyDir(t, dir))
		wants = append(wants, clone(state))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for k, image := range images {
		for _, tear := range []bool{false, true} {
			if tear {
				if h.Tear == nil {
					continue
				}
				h.Tear(t, image)
			}
			re, err := h.Open(image)
			if err != nil {
				t.Fatalf("crash after step %d (tear %v): open: %v", k, tear, err)
			}
			expect(t, re, wants[k])
			if err := re.Put("post", []byte("post-crash")); err != nil {
				t.Fatalf("crash after step %d (tear %v): Put after recovery: %v", k, tear, err)
			}
			if err := re.Delete("post"); err != nil {
				t.Fatalf("crash after step %d (tear %v): Delete after recovery: %v", k, tear, err)
			}
			if err := re.Close(); err != nil {
				t.Fatalf("crash after step %d (tear %v): Close: %v", k, tear, err)
			}
		}
	}
}

func clone(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// copyDir copies the regular files of dir into a fresh temp directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func testTornWrite(t *testing.T, h Harness) {
	if h.Tear == nil {
		t.Skip("store has no torn-write model")
	}
	dir := t.TempDir()
	st := open(t, h, dir)
	want := map[string][]byte{
		"a": []byte("payload-a"),
		"b": []byte("payload-b"),
	}
	for id, p := range want {
		if err := st.Put(id, p); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate the crash artifact, then reopen twice: once to recover,
	// once to prove recovery itself left a clean directory.
	h.Tear(t, dir)
	for round := 0; round < 2; round++ {
		st2 := open(t, h, dir)
		expect(t, st2, want)
		if err := st2.Close(); err != nil {
			t.Fatalf("Close after tear (round %d): %v", round, err)
		}
	}

	// And the store must still accept writes after recovering.
	st3 := open(t, h, dir)
	defer st3.Close()
	if err := st3.Put("c", []byte("post-crash")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	want["c"] = []byte("post-crash")
	expect(t, st3, want)
}

func testConcurrentWriters(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() { // per-iteration w: each goroutine gets its own copy
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-r%03d", w, i)
				if err := st.Put(id, []byte(id+"-payload")); err != nil {
					errs <- err
					return
				}
				if i%5 == 4 { // delete every fifth record after writing it
					if err := st.Delete(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent writer: %v", err)
	}
	want := map[string][]byte{}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if i%5 == 4 {
				continue
			}
			id := fmt.Sprintf("w%d-r%03d", w, i)
			want[id] = []byte(id + "-payload")
		}
	}
	expect(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := open(t, h, dir)
	defer st2.Close()
	expect(t, st2, want)
}

func testConcurrentSameID(t *testing.T, h Harness) {
	dir := t.TempDir()
	st := open(t, h, dir)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() { // per-iteration w: each goroutine gets its own copy
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := st.Put("contended", []byte(fmt.Sprintf("writer-%d-round-%d", w, i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check := func(s jobstore.Store) {
		t.Helper()
		recs, err := s.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(recs) != 1 || recs[0].ID != "contended" {
			t.Fatalf("want exactly the contended record, got %v", recs)
		}
		// The surviving payload must be one some writer actually wrote —
		// torn interleavings are forbidden.
		p := string(recs[0].Payload)
		if !strings.HasPrefix(p, "writer-") || !strings.Contains(p, "-round-") {
			t.Fatalf("payload %q is not any writer's complete value", p)
		}
	}
	check(st)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := open(t, h, dir)
	defer st2.Close()
	check(st2)
}

func testClosed(t *testing.T, h Harness) {
	st := open(t, h, t.TempDir())
	if err := st.Put("a", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close must be idempotent, got %v", err)
	}
	if err := st.Put("b", []byte("y")); err == nil {
		t.Error("Put on a closed store must fail")
	}
	if err := st.PutLazy("b", []byte("y")); err == nil {
		t.Error("PutLazy on a closed store must fail")
	}
	if err := st.Delete("a"); err == nil {
		t.Error("Delete on a closed store must fail")
	}
	if err := st.Sync(); err == nil {
		t.Error("Sync on a closed store must fail")
	}
}
