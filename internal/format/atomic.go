package format

import (
	"io"
	"path/filepath"
	"time"

	"spio/internal/fault"
)

// Crash-consistent file landing. Every spio file (data and metadata)
// is written to a temporary sibling, flushed, fsynced, and atomically
// renamed into place, so a reader never observes a torn or partial
// file under its canonical name: either the old content (or nothing)
// is visible, or the complete new content is. A crash mid-write leaves
// at most a *.spio-tmp file, which Fsck reports and a re-run
// overwrites. Transient errors (fault.IsTransient) get a bounded
// retry with exponential backoff before the write is declared failed.

// TempSuffix is appended to a file's canonical path while it is being
// written; a leftover temp file marks an interrupted write.
const TempSuffix = ".spio-tmp"

const (
	// writeAttempts bounds the retry loop: one initial try plus up to
	// two retries of transient failures.
	writeAttempts = 3
	// retryBackoff is the base backoff, doubled each retry.
	retryBackoff = time.Millisecond
)

// fsOrOS resolves a possibly-nil injected filesystem to the real one.
func fsOrOS(fsys fault.WriteFS) fault.WriteFS {
	if fsys == nil {
		return fault.OS()
	}
	return fsys
}

// writeFileAtomic lands emit's output at path via temp file + fsync +
// rename, retrying transient failures. emit must be repeatable: it is
// called once per attempt against a fresh truncated temp file.
func writeFileAtomic(fsys fault.WriteFS, path string, emit func(w io.Writer) error) error {
	var err error
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
		}
		err = writeFileOnce(fsys, path, emit)
		if err == nil || !fault.IsTransient(err) {
			return err
		}
	}
	return err
}

// writeFileOnce is one attempt of the temp+fsync+rename sequence. emit
// writes to the temp file itself, unbuffered: every emitter writes a
// prefix, then frames or ~1MB chunks, then at most a 4-byte tail. On any
// failure the temp file is removed, so aborted writes leave the directory
// as it was.
func writeFileOnce(fsys fault.WriteFS, path string, emit func(w io.Writer) error) error {
	tmp := path + TempSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = emit(f)
	if err == nil {
		// The data must be durable before the rename publishes it:
		// rename-before-fsync can surface a complete-looking file with
		// missing content after a crash.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort: never leave a temp behind
		return err
	}
	// Directory sync is best-effort: the rename is already atomic for
	// live readers, and some filesystems refuse to fsync directories.
	_ = fsys.SyncDir(filepath.Dir(path))
	return nil
}
