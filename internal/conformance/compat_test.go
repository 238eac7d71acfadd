package conformance

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/sim"
)

// This file holds the format fixtures: files a previous binary wrote, which
// the head must still read to the same bytes or refuse by name. They are
// committed once and never regenerated. A change to a format adds a fixture
// beside the old one; the old one either still reads or becomes a named
// refusal, never a silent misread.
//
// The fixtures under testdata/compat were written at commit 02ea179:
//   - snapshot-<case>.json: the core.Snapshot MarshalBinary wrote after
//     iteration 15 of the sequential sphere case (seed 101, one worker);
//   - snapshot-pc-sphere-estimated.json: the same for pc, on a space that
//     reported Welford-estimated sigmas (a mode since retired);
//   - wal-midrun: an OPTDWAL1 store whose one job, compat-1, was admitted
//     and snapshotted through iteration 15 of 40 by a jobs.Manager whose
//     later snapshots and completion delete were lost.

const compatDir = "testdata/compat"

// compatSnapshots are the committed snapshot fixtures, one row per case.
var compatSnapshots = []struct {
	file   string
	c      traceCase
	refuse error // nil: resumes to the golden's bytes
}{
	{"snapshot-det-sphere.json", traceCase{"det", "sphere", 2, seqMode}, nil},
	{"snapshot-mn-sphere.json", traceCase{"mn", "sphere", 2, seqMode}, nil},
	{"snapshot-pc-sphere.json", traceCase{"pc", "sphere", 2, seqMode}, nil},
	{"snapshot-pc_mn-sphere.json", traceCase{"pc+mn", "sphere", 2, seqMode}, nil},
	{"snapshot-anderson-sphere.json", traceCase{"anderson", "sphere", 2, seqMode}, nil},
	{"snapshot-pc-sphere-estimated.json", traceCase{"pc", "sphere", 2, seqMode}, sim.ErrRetiredEstimatedSigma},
}

// TestCompatFixtures resumes every committed snapshot and recovers the
// committed WAL store with the head's code.
func TestCompatFixtures(t *testing.T) {
	for _, tt := range compatSnapshots {
		t.Run(tt.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(compatDir, tt.file))
			if err != nil {
				t.Fatal(err)
			}
			snap := new(core.Snapshot)
			if err := snap.UnmarshalBinary(raw); err != nil {
				t.Fatal(err)
			}
			space := caseSpace(t, tt.c, 4, defaultSeed)
			defer space.Close()
			var b strings.Builder
			spec := caseSpec(tt.c, func(e core.TraceEvent) { b.WriteString(formatEvent(e)) })
			spec.Resume = snap
			res, err := core.Run(context.Background(), space, spec)
			if tt.refuse != nil {
				if !errors.Is(err, tt.refuse) {
					t.Fatalf("resume = %v; want the refusal %q", err, tt.refuse)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(goldenPath(tt.c))
			if err != nil {
				t.Fatal(err)
			}
			want := traceSuffix(string(golden), snap.Iterations)
			if got := b.String() + formatResult(res); got != want {
				t.Fatalf("resumed from iteration %d, differs from %s:\n%s", snap.Iterations, goldenPath(tt.c), firstDiff(want, got))
			}
		})
	}

	t.Run("wal-midrun", func(t *testing.T) {
		dir := t.TempDir() // recovery appends to the log: work on a copy
		if err := os.CopyFS(dir, os.DirFS(filepath.Join(compatDir, "wal-midrun"))); err != nil {
			t.Fatal(err)
		}
		st, err := jobstore.Open("wal", dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.List()
		if err != nil || len(recs) != 1 {
			t.Fatalf("List = %d records, %v; want 1", len(recs), err)
		}
		var rec struct {
			Spec     jobs.Spec      `json:"spec"`
			Snapshot *core.Snapshot `json:"snapshot"`
		}
		if err := json.Unmarshal(recs[0].Payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot == nil || rec.Snapshot.Iterations != 15 {
			t.Fatalf("the record holds snapshot %+v; want the one after iteration 15", rec.Snapshot)
		}

		m, err := jobs.New(jobs.Config{Store: st, CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ids, err := m.Recover()
		if err != nil || !reflect.DeepEqual(ids, []string{recs[0].ID}) {
			t.Fatalf("Recover = %v, %v; want [%s]", ids, err, recs[0].ID)
		}
		if s, err := m.Get(recs[0].ID); err != nil || s.Iterations < 15 {
			t.Fatalf("recovered job at iteration %d, %v; want it resumed from the snapshot's 15", s.Iterations, err)
		}
		recovered, err := m.Wait(recs[0].ID)
		if err != nil {
			t.Fatal(err)
		}

		fresh, err := jobs.New(jobs.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		id, err := fresh.Submit(rec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(recovered)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("recovered result differs from a fresh run of its spec:\nrecovered %s\nfresh     %s", gotJSON, wantJSON)
		}
	})
}
