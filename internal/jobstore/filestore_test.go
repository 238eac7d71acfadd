package jobstore

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFileStoreLegacyLayout pins the on-disk layout to the one the jobs
// manager wrote before the Store interface existed: <id>.ckpt.json per
// record. Checkpoint directories from older releases must recover through
// this store unchanged.
func TestFileStoreLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	// A "legacy" checkpoint written by the pre-interface manager.
	if err := os.WriteFile(filepath.Join(dir, "j000042"+FileSuffix), []byte(`{"id":"j000042"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Noise the old recovery loop also skipped.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignore me"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "j000042" || string(recs[0].Payload) != `{"id":"j000042"}` {
		t.Fatalf("legacy checkpoint not recovered: %v", recs)
	}
	// And Put writes the exact same layout back.
	if err := st.Put("j000043", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "j000043"+FileSuffix)); err != nil {
		t.Fatalf("Put did not produce the legacy file name: %v", err)
	}
}

// TestFileStoreSweepsOrphans: OpenFile removes the temp files a crash
// mid-writeAtomic leaves behind, and only those.
func TestFileStoreSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "j000001"+FileSuffix+".tmp-777")
	keeper := filepath.Join(dir, "j000001"+FileSuffix)
	for _, f := range []string{orphan, keeper} {
		if err := os.WriteFile(f, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp file not swept: %v", err)
	}
	if _, err := os.Stat(keeper); err != nil {
		t.Fatalf("real record swept along with the orphan: %v", err)
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := writeAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "v1" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite must replace the content atomically and leave no temp files.
	if err := writeAtomic(path, []byte("v2 longer"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2 longer" {
		t.Fatalf("overwrite read back %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if err := writeAtomic(filepath.Join(dir, "missing", "x"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into missing directory did not error")
	}
}
