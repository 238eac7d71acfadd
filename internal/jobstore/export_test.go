package jobstore

import (
	"errors"
	"io"
	"testing"
)

// Test-only exports for the external conformance tests.

// AppendWALRecordForTest encodes one put record, so store-external tests
// can fabricate the torn-append crash artifact.
func AppendWALRecordForTest(dst []byte, id string, payload []byte) []byte {
	return appendWALRecord(dst, opPut, id, payload)
}

// errInjected is the error the injected failures return.
var errInjected = errors.New("injected fault")

// faultFile wraps the real log file and fails the next call of each armed
// kind once. A failed write first lands the front half of its bytes, the
// torn record a real short write leaves behind.
type faultFile struct {
	walFile
	shortWrite   bool // next Write lands half its bytes and reports io.ErrShortWrite
	failWrite    bool // next Write lands half its bytes and reports errInjected
	failSync     bool // next Sync reports errInjected without syncing
	failTruncate bool // next Truncate reports errInjected without truncating
}

func (f *faultFile) Write(p []byte) (int, error) {
	if !f.shortWrite && !f.failWrite {
		return f.walFile.Write(p)
	}
	err := io.ErrShortWrite
	if f.failWrite {
		err = errInjected
	}
	f.shortWrite, f.failWrite = false, false
	n, werr := f.walFile.Write(p[:len(p)/2])
	if werr != nil {
		return n, werr
	}
	return n, err
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.walFile.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		f.failTruncate = false
		return errInjected
	}
	return f.walFile.Truncate(size)
}

// withFaultFiles swaps the file seam for the rest of the test: every log
// file the WAL opens (at Open and after a compaction) is a faultFile, and
// the latest one is returned through the pointer.
func withFaultFiles(t *testing.T) **faultFile {
	t.Helper()
	var latest *faultFile
	real := openWALFile
	openWALFile = func(path string) (walFile, error) {
		f, err := real(path)
		if err != nil {
			return nil, err
		}
		latest = &faultFile{walFile: f}
		return latest, nil
	}
	t.Cleanup(func() { openWALFile = real })
	return &latest
}
