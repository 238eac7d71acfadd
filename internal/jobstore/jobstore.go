// Package jobstore defines the durable job store behind the jobs manager:
// a pluggable keyed record store that survives process death, so any optd
// replica can recover any job from it (the deterministic seed/draw model
// makes a recovered run bitwise-identical to the uninterrupted one).
//
// A record is an opaque payload keyed by job ID — the jobs package stores
// its self-contained checkpoint document (spec + optimizer snapshot) there
// and never tells the store what is inside. Writes come in two kinds —
// PutLazy (replace a record) and Delete — and a crash may lose either
// until the next Sync, the group-committed barrier that makes every write
// issued before it durable. Put is PutLazy followed by Sync. The jobs
// layer uses Put only to admit a job, because the admitted spec is the one
// record whose loss changes what a client gets, and it issues that Put
// after the job is already queued, so the run overlaps the fsync (the
// client is answered only once the Put returns). Snapshots (PutLazy) and
// the completion Delete ride on whichever fsync comes next: every result
// is a pure function of (spec, seed), so losing a snapshot resumes from an
// earlier one to the same bits and losing a delete costs one re-run. Two
// implementations ship:
//
//   - FileStore: one file per job written with atomic write-then-rename
//     (the layout the manager used before the interface existed, so a
//     pre-existing checkpoint directory recovers unchanged). Its Sync
//     fsyncs the directory, which makes renames and removes durable;
//   - WALStore: a single append-only write-ahead log of CRC-guarded
//     records and background-free compaction — one fsync per Sync
//     instead of a file create+rename per write, and group commit under
//     concurrent writers.
//
// Open chooses between them by what the directory already holds: a
// directory reopens in the layout it was written in, and the caller's kind
// only picks the layout of a new one. A restarted server and a replica
// adopting a dead one's directory therefore need no setting that could
// disagree with the directory.
//
// Both implementations satisfy the same conformance contract, enforced by
// the shared storetest suite (storetest.Run) covering round-trips,
// partial-write truncation, lazy records made durable by a later Sync, Put
// or Close, concurrent writers and crash-point enumeration at every record
// boundary of a PutLazy/Delete/Sync script. storetest.Faults injects
// failed and held calls into any store for the layers above.
package jobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Record is one durable job record: an opaque payload keyed by job ID.
type Record struct {
	// ID is the job ID the record is keyed by.
	ID string
	// Payload is the opaque document the jobs layer stored.
	Payload []byte
}

// Store persists job records. Implementations must be safe for concurrent
// use.
type Store interface {
	// Put replaces the record for id and makes it durable (on stable
	// storage) before returning: it is PutLazy followed by Sync, so it also
	// makes every write issued before it durable.
	Put(id string, payload []byte) error
	// PutLazy replaces the record for id without waiting for stable
	// storage: a crash before the store's next Sync (a Sync, a Put, or
	// Close) may lose it.
	PutLazy(id string, payload []byte) error
	// Delete removes the record for id, lazily like PutLazy. Deleting an
	// absent id is not an error.
	Delete(id string) error
	// Sync makes every PutLazy and Delete that returned before it was
	// called durable. Concurrent Syncs group-commit: one fsync may serve
	// them all. A failed Sync leaves the fate of those writes unknown.
	Sync() error
	// List returns every live record sorted by ID. Implementations may
	// return the readable records alongside the first read error, so one
	// damaged record does not block recovery of the rest.
	List() ([]Record, error)
	// Kind names the implementation ("file", "wal") for status surfaces.
	Kind() string
	// Close makes the pending lazy writes durable and releases resources.
	// The store must not be used afterwards.
	Close() error
}

// maxIDLen bounds record IDs: IDs become file names (FileStore) and
// length-prefixed wire fields (WALStore).
const maxIDLen = 128

// ValidID reports whether id is storable: non-empty, at most maxIDLen
// bytes, only [A-Za-z0-9._-], and not starting with a dot (IDs are file
// names in the FileStore layout).
func ValidID(id string) bool {
	if id == "" || len(id) > maxIDLen || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// CheckID returns a descriptive error for an unstorable ID.
func CheckID(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("jobstore: invalid record id %q (want 1-%d chars of [A-Za-z0-9._-], not starting with '.')", id, maxIDLen)
	}
	return nil
}

// Open opens the store rooted at dir in the layout the directory holds:
// *.ckpt.json records open a FileStore, a jobs.wal a WALStore. kind ("file"
// or empty, or "wal") only picks the layout of a directory that holds
// neither. A jobs.wal with no live record beside file records does not
// count (opening a file directory as a WAL leaves one); file records beside
// a WAL with records are an error naming both. The directory is created if
// missing.
func Open(kind, dir string) (Store, error) {
	if kind != "" && kind != "file" && kind != "wal" {
		return nil, fmt.Errorf("jobstore: unknown store kind %q (want \"file\" or \"wal\")", kind)
	}
	held, err := layoutOf(dir)
	if err != nil {
		return nil, err
	}
	if held != "" {
		kind = held
	}
	if kind == "wal" {
		return OpenWAL(dir)
	}
	return OpenFile(dir)
}

// layoutOf names the layout dir holds records in: "file", "wal", or "" for
// a directory that is missing or holds neither.
func layoutOf(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return "", fmt.Errorf("jobstore: %w", err)
	}
	files, wal := false, false
	for _, e := range entries {
		wal = wal || e.Name() == walFileName
		files = files || !e.IsDir() && strings.HasSuffix(e.Name(), FileSuffix)
	}
	if !files {
		if wal {
			return "wal", nil
		}
		return "", nil
	}
	if wal {
		_, live, _, err := readWAL(filepath.Join(dir, walFileName))
		if err != nil {
			return "", err
		}
		if len(live) > 0 {
			return "", fmt.Errorf("jobstore: %s holds both layouts: *%s records and a %s with records; move one aside", dir, FileSuffix, walFileName)
		}
	}
	return "file", nil
}
