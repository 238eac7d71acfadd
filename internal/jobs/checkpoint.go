package jobs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
)

// The durable job layer over jobstore.Store. A record is self-contained —
// spec plus (once the run has checkpointed) optimizer snapshot — so ANY
// process with this binary can recover it: the record is written at
// submission (spec only, so a job killed while still queued survives),
// replaced with each snapshot, and deleted when the job completes.
//
// Only the submission write is durable before it returns (Store.Put), and
// only Submit's caller waits for it: the job is queued first and may run,
// snapshot and even finish during the fsync (submit then issues its
// delete, so it lands after the record). Snapshots (PutLazy) and the
// completion delete ride on the store's next fsync, because every result
// is a pure function of (spec, seed): losing a snapshot resumes from an
// earlier one, or from the spec, to the same bits, and losing a delete
// re-runs a finished job to the same result. No store call is made with
// Manager.mu held.

// ckptSuffix is re-exported for tests that inspect the file-store layout.
const ckptSuffix = jobstore.FileSuffix

// checkpointFile is the stored record layout.
type checkpointFile struct {
	// ID is the job ID, echoed inside the record so a moved/copied record
	// is still attributable.
	ID string `json:"id"`
	// Saved is the wall-clock write time.
	Saved time.Time `json:"saved"`
	// Spec rebuilds the space and config.
	Spec Spec `json:"spec"`
	// Snapshot fast-forwards the optimizer. Nil for a job that never
	// reached its first checkpoint: recovery re-runs it from the spec
	// (bitwise-identically — the run is a pure function of the spec).
	Snapshot *core.Snapshot `json:"snapshot"`
}

// initStore takes the manager's own store (Config.Store) and reserves every
// stored ID, so fresh submissions made before (or instead of) Recover can
// never take an ID whose record is still durable — a collision would orphan
// the recoverable run and eventually delete its record.
func (m *Manager) initStore() {
	m.store = m.cfg.Store
	if m.store == nil {
		return
	}
	// List errors are tolerated here (Recover surfaces them); whatever was
	// readable still gets its ID reserved.
	recs, _ := m.store.List()
	m.mu.Lock()
	for _, rec := range recs {
		m.reserved[rec.ID] = struct{}{}
		m.bumpIDLocked(rec.ID)
	}
	m.mu.Unlock()
}

// bumpIDLocked keeps auto-assigned IDs clear of id if it is j<number>-form.
func (m *Manager) bumpIDLocked(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > m.nextID {
		m.nextID = n
	}
}

// marshalRecord encodes one durable job record.
func marshalRecord(id string, spec Spec, snap *core.Snapshot) ([]byte, error) {
	payload, err := json.Marshal(checkpointFile{ID: id, Saved: time.Now(), Spec: spec, Snapshot: snap})
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return payload, nil
}

// saveCheckpoint records the latest snapshot of a running job in the store
// its record lives in. The write is lazy: losing it resumes from an
// earlier snapshot, or from the spec, to the same bits.
func (m *Manager) saveCheckpoint(j *job, snap *core.Snapshot) error {
	if j.store == nil {
		return nil
	}
	payload, err := marshalRecord(j.id, j.spec, snap)
	if err != nil {
		return err
	}
	return j.store.PutLazy(j.id, payload)
}

// removeRecord deletes a job's durable record. Deletion failures are
// reported to the event log but not propagated: the worst outcome is a
// completed job re-running (to the same result) after a recovery.
func (m *Manager) removeRecord(j *job) {
	if err := j.store.Delete(j.id); err != nil {
		m.cfg.Events.Event("checkpoint_delete_error", "job", j.id, "err", err)
	}
}

// Recover re-enqueues every job recorded in the manager's own store under
// its original ID — resuming from its last snapshot, or from the spec for
// jobs that never checkpointed (killed while queued). It returns the
// recovered job IDs (sorted). Call it once, after New and before Submit,
// in a freshly started process; recovered and new jobs share the run pool.
// Unreadable records are skipped with an error, never deleted. Recovered
// jobs bypass tenant admission (quotas and rate limits bound NEW work; a
// restart must never strand durable jobs), but they do count against the
// tenant's running cap once dispatched.
func (m *Manager) Recover() ([]string, error) {
	if m.store == nil {
		return nil, nil
	}
	return m.recoverFrom(m.store)
}

// RecoverFrom adopts every job recorded in st — a dead replica's store —
// exactly as Recover does for the manager's own. The manager takes
// ownership of st and closes it on Close; adopted jobs keep their records
// (and future snapshots) in st, so a later recovery of that store still
// finds them. This is the coordinator-failover primitive: a surviving
// optd replica opens the dead shard's store and re-dispatches its jobs,
// the same way the fleet coordinator re-dispatches a dead worker's tasks.
func (m *Manager) RecoverFrom(st jobstore.Store) ([]string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.adopted = append(m.adopted, st)
	m.mu.Unlock()
	m.cfg.Events.Event("store_adopt", "kind", st.Kind())
	return m.recoverFrom(st)
}

func (m *Manager) recoverFrom(st jobstore.Store) ([]string, error) {
	recs, firstErr := st.List()
	var ids []string
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	for _, rec := range recs {
		var ckpt checkpointFile
		if err := json.Unmarshal(rec.Payload, &ckpt); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobs: record %s: %w", rec.ID, err)
			}
			continue
		}
		id := ckpt.ID
		if id == "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobs: record %s is incomplete", rec.ID)
			}
			continue
		}
		if prev, exists := m.jobs[id]; exists {
			if prev.recovered {
				continue // already recovered (double Recover call)
			}
			// A fresh submission took this ID: resuming would collide, and
			// letting the fresh job finish would delete this record. Report
			// it instead of losing the run silently (call Recover before
			// Submit to avoid this).
			if firstErr == nil {
				firstErr = fmt.Errorf("jobs: record %s: job ID %s already taken by a fresh submission", rec.ID, id)
			}
			continue
		}
		ckpt.Spec.normalize()
		ts := m.tenantLocked(tenantOf(ckpt.Spec.Tenant))
		ts.queued++
		ts.mQueued.Set(float64(ts.queued))
		j := m.enqueueLocked(id, ckpt.Spec, ckpt.Snapshot, true)
		j.store = st
		delete(m.reserved, id)
		m.bumpIDLocked(id)
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, firstErr
}
