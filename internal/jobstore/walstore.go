package jobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// walFileName is the log file inside the store directory.
const walFileName = "jobs.wal"

// compactFloor is the minimum garbage (bytes superseded by later records)
// before a compaction is worth an extra full-file write.
const compactFloor = 1 << 20 // 1 MiB

// walFile is the part of *os.File the log appends through. It is a seam
// so tests can inject failed writes, fsyncs and truncates.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// openWALFile opens the log for appending.
var openWALFile = func(path string) (walFile, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// WALStore is the append-only durable store: every Put/PutLazy/Delete
// appends one CRC-guarded record to a single write-ahead log. PutLazy and
// Delete return after the append; Sync fsyncs the file, and Put is PutLazy
// then Sync. An append is durable at the next fsync of the file, whoever
// issues it. Concurrent Syncs group-commit — any fsync that covers a
// writer's append satisfies it, so N concurrent Puts pay far fewer than N
// fsyncs. The log self-compacts when superseded bytes outgrow live ones.
//
// Crash safety: records reach the file in log order, so the only legal
// damage is a lost suffix — the lazy records since the last fsync and a
// torn final record; OpenWAL replays up to the tear, truncates the tail,
// and the store continues from that prefix — enumerated crash points are
// part of the storetest contract. A failed write is cut back to the last
// record boundary; a failed fsync (or a failed cut) poisons the store, so
// no later write can be acknowledged behind a hole.
type WALStore struct {
	dir  string
	path string

	mu         sync.Mutex
	f          walFile           // guarded by mu
	live       map[string][]byte // guarded by mu
	liveBytes  int               // guarded by mu: encoded size of the live records
	totalBytes int               // guarded by mu: bytes appended since the magic
	buf        []byte            // guarded by mu: reusable encode buffer
	closed     bool              // guarded by mu
	// poison is the sticky error of a failed fsync or of a failed write
	// that could not be cut back: the file may hold a hole, so every later
	// write, compaction and Close returns it. Guarded by mu.
	poison error

	// appendGen counts appends; syncedGen is the latest generation known
	// durable. A writer whose generation is already synced skips its fsync
	// — that is the whole group-commit mechanism.
	appendGen atomic.Uint64
	syncedGen atomic.Uint64

	// syncMu serializes fsyncs (and compaction, which replaces f). Never
	// held together with mu except by compact and Close, which take
	// syncMu first.
	syncMu sync.Mutex
}

// OpenWAL opens (creating if missing) a WALStore rooted at dir, replaying
// the log and truncating any torn tail a crash left behind.
func OpenWAL(dir string) (*WALStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: wal store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	path := filepath.Join(dir, walFileName)
	// Replay into locals; the store is published via the composite literal
	// below, before any other goroutine can see it.
	data, live, totalBytes, err := readWAL(path)
	if err != nil {
		return nil, err
	}
	if data == nil {
		// Fresh (or torn-at-birth) log: write the magic durably.
		if werr := os.WriteFile(path, []byte(walMagic), 0o644); werr != nil {
			return nil, fmt.Errorf("jobstore: %w", werr)
		}
	} else if tail := len(walMagic) + totalBytes; tail < len(data) {
		// A torn final append: everything before it is durable state, the
		// tail is the crash artifact the fsync discipline allows.
		if terr := os.Truncate(path, int64(tail)); terr != nil {
			return nil, fmt.Errorf("jobstore: truncating torn WAL tail: %w", terr)
		}
	}
	liveBytes := 0
	for id, payload := range live {
		liveBytes += encodedWALSize(id, payload)
	}
	f, err := openWALFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	mFsyncs.Inc()
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &WALStore{
		dir:        dir,
		path:       path,
		f:          f,
		live:       live,
		liveBytes:  liveBytes,
		totalBytes: totalBytes,
	}
	if garbage := totalBytes - liveBytes; garbage > compactFloor && garbage > liveBytes {
		if err := s.compact(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// readWAL reads and replays the log at path without repairing it. A missing
// log, or one torn before its magic was complete, reads as nil data and no
// records: no record was ever acknowledged. goodLen is the length of the
// intact records after the magic.
func readWAL(path string) (data []byte, live map[string][]byte, goodLen int, err error) {
	data, err = os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("jobstore: %w", err)
	}
	if len(data) < len(walMagic) && string(data) == walMagic[:len(data)] {
		return nil, make(map[string][]byte), 0, nil
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, nil, 0, fmt.Errorf("jobstore: %s is not a WAL (bad magic)", path)
	}
	live, goodLen, _ = replayWAL(data[len(walMagic):])
	return data, live, goodLen, nil
}

// encodedWALSize is the on-disk footprint of one put record.
func encodedWALSize(id string, payload []byte) int {
	return walHeaderLen + walBodyMin + len(id) + len(payload) + walTrailerLen
}

// garbageLocked is the superseded byte count. Caller holds mu (or has
// exclusive access during Open).
func (s *WALStore) garbageLocked() int { return s.totalBytes - s.liveBytes }

// Dir returns the store's root directory.
func (s *WALStore) Dir() string { return s.dir }

// Kind implements Store.
func (s *WALStore) Kind() string { return "wal" }

// Put implements Store: PutLazy, then Sync.
func (s *WALStore) Put(id string, payload []byte) error {
	if err := s.PutLazy(id, payload); err != nil {
		return err
	}
	return s.Sync()
}

// PutLazy implements Store: append one put record without an fsync, and
// compact if the log has outgrown its live content. It becomes durable
// with the next Sync's group commit, a compaction or Close.
func (s *WALStore) PutLazy(id string, payload []byte) error {
	return s.append(opPut, id, payload)
}

// Delete implements Store: append one delete record without an fsync,
// like PutLazy.
func (s *WALStore) Delete(id string) error {
	return s.append(opDelete, id, nil)
}

// Sync implements Store: fsync every append made so far (group-committed).
func (s *WALStore) Sync() error {
	s.mu.Lock()
	err := s.usableLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncTo(s.appendGen.Load())
}

func (s *WALStore) append(op byte, id string, payload []byte) error {
	if err := CheckID(id); err != nil {
		return err
	}
	if len(payload) > maxWALPayload {
		return fmt.Errorf("jobstore: payload of %d bytes exceeds the WAL record cap %d", len(payload), maxWALPayload)
	}
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.buf = appendWALRecord(s.buf[:0], op, id, payload)
	if _, err := s.f.Write(s.buf); err != nil {
		err = fmt.Errorf("jobstore: %w", err)
		// Cut the partial record off, or a later append would land behind
		// it and replay would stop at the tear, losing acknowledged records.
		if terr := s.f.Truncate(int64(len(walMagic) + s.totalBytes)); terr != nil {
			s.poison = fmt.Errorf("jobstore: cutting a failed append: %w (after %v)", terr, err)
		}
		s.mu.Unlock()
		return err
	}
	s.totalBytes += len(s.buf)
	if prev, ok := s.live[id]; ok {
		s.liveBytes -= encodedWALSize(id, prev)
	}
	if op == opPut {
		s.live[id] = append([]byte(nil), payload...)
		s.liveBytes += encodedWALSize(id, payload)
	} else {
		delete(s.live, id)
	}
	s.appendGen.Add(1)
	needCompact := s.garbageLocked() > compactFloor && s.garbageLocked() > s.liveBytes
	s.mu.Unlock()

	mLazyWrites.Inc()
	if needCompact {
		return s.compact()
	}
	return nil
}

// usableLocked reports why the store cannot take a write, if it cannot.
// Caller holds mu.
func (s *WALStore) usableLocked() error {
	if s.closed {
		return fmt.Errorf("jobstore: store is closed")
	}
	return s.poison
}

// syncTo makes generation gen durable. Writers whose generation an earlier
// fsync already covered return immediately; the one that does fsync covers
// every append that completed before it — group commit. A failed fsync
// poisons the store: the kernel may have dropped the dirty pages, so a
// retry that succeeded could still acknowledge a record behind a hole.
func (s *WALStore) syncTo(gen uint64) error {
	if s.syncedGen.Load() >= gen {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.syncedGen.Load() >= gen {
		return nil
	}
	// Every append at or below this generation has hit the file (writes
	// happen before appendGen is bumped, both under mu). Snapshot the
	// handle under mu: compact may swap s.f, but only while also holding
	// syncMu, so the snapshot cannot go stale inside this critical section.
	cover := s.appendGen.Load()
	s.mu.Lock()
	f, unusable := s.f, s.usableLocked()
	s.mu.Unlock()
	if unusable != nil {
		return unusable
	}
	mFsyncs.Inc()
	if err := f.Sync(); err != nil {
		err = fmt.Errorf("jobstore: %w", err)
		s.mu.Lock()
		s.poison = err
		s.mu.Unlock()
		return err
	}
	s.syncedGen.Store(cover)
	return nil
}

// compact rewrites the log to exactly the live records (sorted by ID, one
// atomic write-then-rename) and reopens the append handle. Readers of the
// old file see either the old or the new complete log, never a mix.
func (s *WALStore) compact() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if s.garbageLocked() <= compactFloor/4 {
		return nil // a concurrent compaction already ran
	}
	content := []byte(walMagic)
	for _, id := range s.sortedIDsLocked() {
		content = appendWALRecord(content, opPut, id, s.live[id])
	}
	mFsyncs.Inc()
	if err := writeAtomic(s.path, content, 0o644); err != nil {
		return err
	}
	f, err := openWALFile(s.path)
	if err != nil {
		return fmt.Errorf("jobstore: reopening compacted WAL: %w", err)
	}
	s.f.Close()
	s.f = f
	s.totalBytes = len(content) - len(walMagic)
	s.liveBytes = s.totalBytes
	// The compacted file is durable (writeAtomic fsyncs before renaming),
	// so everything appended so far, lazy records included, is covered.
	s.syncedGen.Store(s.appendGen.Load())
	return nil
}

func (s *WALStore) sortedIDsLocked() []string {
	ids := make([]string, 0, len(s.live))
	//optlint:nondeterministic-ok collection is sorted immediately below
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// List implements Store: the live records, sorted by ID. Payloads are
// copies, safe to hold across later store mutations.
func (s *WALStore) List() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("jobstore: store is closed")
	}
	recs := make([]Record, 0, len(s.live))
	for _, id := range s.sortedIDsLocked() {
		recs = append(recs, Record{ID: id, Payload: append([]byte(nil), s.live[id]...)})
	}
	return recs, nil
}

// Close implements Store: it fsyncs the lazy records still pending. A
// poisoned store closes its file and returns the poison.
func (s *WALStore) Close() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.poison
	if err == nil {
		mFsyncs.Inc()
		if serr := s.f.Sync(); serr != nil {
			err = fmt.Errorf("jobstore: %w", serr)
		}
	}
	if cerr := s.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("jobstore: %w", cerr)
	}
	return err
}
