package jobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileSuffix is the per-record file suffix of the FileStore layout —
// the layout the jobs manager wrote before the Store interface existed,
// kept bit-for-bit so existing checkpoint directories recover unchanged.
const FileSuffix = ".ckpt.json"

// FileStore stores one file per record under a directory, each written
// with writeAtomic so a crash mid-write leaves the previous record
// intact. The zero cost of its reads and the human-inspectable layout make
// it the default store; the WALStore trades that for cheaper writes.
type FileStore struct {
	dir string

	mu     sync.Mutex
	closed bool // guarded by mu
}

// OpenFile opens (creating if missing) a FileStore rooted at dir and
// sweeps the orphaned temp files a crash mid-writeAtomic leaves behind.
func OpenFile(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: file store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	// A crash mid-writeAtomic leaves an orphaned temp file (the previous
	// record is intact); sweep them so they do not accumulate.
	stale, err := filepath.Glob(filepath.Join(dir, "*"+FileSuffix+".tmp-*"))
	if err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// Kind implements Store.
func (s *FileStore) Kind() string { return "file" }

func (s *FileStore) path(id string) string {
	return filepath.Join(s.dir, id+FileSuffix)
}

// Put implements Store: PutLazy, then Sync.
func (s *FileStore) Put(id string, payload []byte) error {
	if err := s.PutLazy(id, payload); err != nil {
		return err
	}
	return s.Sync()
}

// PutLazy implements Store: an atomic write-then-rename of
// <dir>/<id>.ckpt.json. The file's data is fsynced before the rename, so
// a crash never leaves an unreadable record (recovery would skip it); the
// rename itself is durable at the next Sync, so a crash before it may
// bring back the previous record — the lazy contract.
func (s *FileStore) PutLazy(id string, payload []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	if err := s.check(); err != nil {
		return err
	}
	return writeAtomic(s.path(id), payload, 0o644)
}

// Delete implements Store: it removes the file without syncing the
// directory, so a crash before the next Sync may bring the record back —
// the lazy contract.
func (s *FileStore) Delete(id string) error {
	if err := CheckID(id); err != nil {
		return err
	}
	if err := s.check(); err != nil {
		return err
	}
	if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// List implements Store: every *.ckpt.json record sorted by ID. Unreadable
// files are skipped and reported through the first error, never deleted.
func (s *FileStore) List() ([]Record, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var recs []Record
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, FileSuffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobstore: %w", err)
			}
			continue
		}
		recs = append(recs, Record{ID: strings.TrimSuffix(name, FileSuffix), Payload: data})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, firstErr
}

// Sync implements Store: it fsyncs the directory, which makes every
// rename and remove issued before it durable.
func (s *FileStore) Sync() error {
	if err := s.check(); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *FileStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Close implements Store: it syncs the directory, so the pending renames
// and removes are durable.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.syncDir()
}

func (s *FileStore) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("jobstore: store is closed")
	}
	return nil
}

// writeAtomic writes data to path so that a reader (or a recovering
// process) never observes a partial file: the bytes land in a temporary
// file in the same directory, are synced, and are renamed over path in one
// atomic step. A crash mid-write leaves the previous file intact and an
// orphaned <name>.tmp-* file, which OpenFile sweeps.
func writeAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}
