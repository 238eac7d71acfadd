package jobstore_test

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/jobstore"
	"repro/internal/jobstore/storetest"
)

// TestFileStoreConformance runs the shared store contract against the
// one-file-per-job layout. Its torn-write model is writeAtomic's: a crash
// mid-Put leaves the previous record intact plus an orphaned temp file.
func TestFileStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Harness{
		Open: func(dir string) (jobstore.Store, error) { return jobstore.OpenFile(dir) },
		Tear: func(t *testing.T, dir string) {
			orphan := filepath.Join(dir, "torn"+jobstore.FileSuffix+".tmp-12345")
			if err := os.WriteFile(orphan, []byte(`{"half":`), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestWALStoreConformance runs the same contract against the write-ahead
// log. Its torn-write model is a partial final record appended to the log.
func TestWALStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Harness{
		Open: func(dir string) (jobstore.Store, error) { return jobstore.OpenWAL(dir) },
		Tear: func(t *testing.T, dir string) {
			// Append the first half of a record that was never acknowledged.
			rec := jobstore.AppendWALRecordForTest(nil, "torn", []byte("never-acked-payload"))
			f, err := os.OpenFile(filepath.Join(dir, "jobs.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(rec[:len(rec)/2]); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestOpenDispatch pins the layout matrix of the Open factory: a directory
// that holds records opens in the layout it holds, whatever kind is asked
// for, and kind only picks the layout of a directory that holds none. A
// directory holding both layouts is refused untouched; a WAL with no live
// record beside file records (what opening a file directory as a WAL leaves
// behind) opens as file. Every record lists byte-identical, and no file of
// the other layout is created.
func TestOpenDispatch(t *testing.T) {
	fileRecs := []jobstore.Record{{ID: "f1", Payload: []byte(`{"spec":1}`)}, {ID: "f2", Payload: []byte(`{"spec":2}`)}}
	walRecs := []jobstore.Record{{ID: "w1", Payload: []byte(`{"spec":3}`)}, {ID: "w2", Payload: []byte(`{"spec":4}`)}}
	// fill puts recs into a freshly opened store, deletes the gone IDs and
	// closes it.
	fill := func(t *testing.T, st jobstore.Store, err error, recs []jobstore.Record, gone ...string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := st.Put(r.ID, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range gone {
			if err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files := func(t *testing.T, dir string) {
		st, err := jobstore.OpenFile(dir)
		fill(t, st, err, fileRecs)
	}
	wal := func(t *testing.T, dir string) {
		st, err := jobstore.OpenWAL(dir)
		fill(t, st, err, walRecs)
	}
	layouts := []struct {
		name string
		seed func(t *testing.T, dir string)
		// holds is the layout that opens whatever the kind: "" lets the
		// kind decide, "both" is refused.
		holds string
		recs  []jobstore.Record
	}{
		{"nothing", func(*testing.T, string) {}, "", nil},
		{"file records", files, "file", fileRecs},
		{"wal", wal, "wal", walRecs},
		{"both", func(t *testing.T, dir string) { files(t, dir); wal(t, dir) }, "both", nil},
		{"file records and a record-free wal", func(t *testing.T, dir string) {
			files(t, dir)
			st, err := jobstore.OpenWAL(dir)
			fill(t, st, err, nil)
		}, "file", fileRecs},
		{"file records and a drained wal", func(t *testing.T, dir string) {
			files(t, dir)
			st, err := jobstore.OpenWAL(dir)
			fill(t, st, err, walRecs, "w1", "w2")
		}, "file", fileRecs},
	}
	for _, l := range layouts {
		for _, kind := range []string{"", "file", "wal"} {
			t.Run(l.name+"/kind="+kind, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "store")
				l.seed(t, dir)
				before := dirNames(t, dir)
				st, err := jobstore.Open(kind, dir)
				if l.holds == "both" {
					if err == nil {
						st.Close()
						t.Fatal("a directory holding both layouts must be refused")
					}
					if msg := err.Error(); !strings.Contains(msg, jobstore.FileSuffix) || !strings.Contains(msg, "jobs.wal") {
						t.Errorf("error %q must name both layouts", msg)
					}
					if after := dirNames(t, dir); !slices.Equal(after, before) {
						t.Errorf("files after a refused Open = %v, want %v", after, before)
					}
					return
				}
				if err != nil {
					t.Fatalf("Open(%q): %v", kind, err)
				}
				want, created := l.holds, before
				if want == "" {
					want = cmp.Or(kind, "file")
					if want == "wal" {
						created = []string{"jobs.wal"}
					}
				}
				if st.Kind() != want {
					t.Errorf("Open(%q).Kind() = %q, want %q", kind, st.Kind(), want)
				}
				// Dir travels in the failover request body; both stores expose it.
				type direr interface{ Dir() string }
				if d, ok := st.(direr); !ok || d.Dir() != dir {
					t.Errorf("Open(%q).Dir() = %v, want %q", kind, st, dir)
				}
				got, err := st.List()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, l.recs, func(a, b jobstore.Record) bool {
					return a.ID == b.ID && bytes.Equal(a.Payload, b.Payload)
				}) {
					t.Errorf("List = %q, want %q", got, l.recs)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if after := dirNames(t, dir); !slices.Equal(after, created) {
					t.Errorf("files after Open = %v, want %v", after, created)
				}
			})
		}
	}
	if _, err := jobstore.Open("bolt", t.TempDir()); err == nil {
		t.Fatal("unknown store kind must be rejected")
	}
}

// dirNames lists the names in dir, sorted; none for a missing dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
