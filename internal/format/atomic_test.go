package format

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spio/internal/fault"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

func atomicTestBuf(t *testing.T, n int) *particle.Buffer {
	t.Helper()
	return particle.Uniform(particle.PositionOnly(), geom.UnitBox(), n, 11, 0)
}

// listDir returns the sorted names in dir.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// A failed data-file write must leave the directory untouched: no
// canonical file, no temp file.
func TestWriteDataFileFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector()
	in.Add(0, fault.Fault{Op: fault.OpWrite})
	path := filepath.Join(dir, "file_0.spd")
	err := writeBuf(in.FS(0), path, DataHeader{LOD: lod.DefaultParams()}, atomicTestBuf(t, 100))
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("WriteDataFile: got %v, want ErrNoSpace", err)
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("failed write left files behind: %v", names)
	}
}

// A torn write (half the chunk lands, then the error) must also stay
// invisible: the temp file is removed, nothing is renamed.
func TestWriteDataFileTornWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector()
	in.Add(0, fault.Fault{Op: fault.OpWrite, Torn: true})
	path := filepath.Join(dir, "file_0.spd")
	err := writeBuf(in.FS(0), path, DataHeader{LOD: lod.DefaultParams()}, atomicTestBuf(t, 100))
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("torn write left files behind: %v", names)
	}
}

// A transient failure is retried and the write succeeds; the fault
// provably fired.
func TestWriteDataFileRetriesTransient(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector()
	in.Add(0, fault.Fault{Op: fault.OpWrite, Count: 1, Err: fault.Transient(errors.New("eagain"))})
	path := filepath.Join(dir, "file_0.spd")
	buf := atomicTestBuf(t, 100)
	if err := writeBuf(in.FS(0), path, DataHeader{LOD: lod.DefaultParams()}, buf); err != nil {
		t.Fatalf("WriteDataFile with one transient fault: %v", err)
	}
	if in.Injected() == 0 {
		t.Fatal("transient fault never fired")
	}
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatalf("OpenDataFile after retry: %v", err)
	}
	defer df.Close()
	if df.Header.Count != 100 {
		t.Fatalf("count = %d, want 100", df.Header.Count)
	}
	// No temp residue after success.
	for _, name := range listDir(t, dir) {
		if strings.HasSuffix(name, TempSuffix) {
			t.Fatalf("temp file %s left after successful write", name)
		}
	}
}

// A persistent (non-transient) failure is not retried forever: the
// rule fires once, and the error surfaces.
func TestWriteDataFileNoRetryOnPersistent(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector()
	in.Add(0, fault.Fault{Op: fault.OpSync})
	err := writeBuf(in.FS(0), filepath.Join(dir, "f.spd"), DataHeader{LOD: lod.DefaultParams()}, atomicTestBuf(t, 4))
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("got %v, want ErrNoSpace", err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("persistent fault fired %d times, want 1 (no retry)", got)
	}
}

// Rename failures clean up the temp file too.
func TestWriteMetaRenameFailureCleansTemp(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector()
	in.Add(0, fault.Fault{Op: fault.OpRename})
	err := WriteMeta(in.FS(0), dir, testMeta(t))
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("WriteMeta: got %v, want ErrNoSpace", err)
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("failed meta write left files behind: %v", names)
	}
}

// A truncated data file is classified with ErrTruncated, both when the
// payload is cut short and when the header itself ends early.
func TestOpenDataFileClassifiesTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file_0.spd")
	if err := writeBuf(nil, path, DataHeader{LOD: lod.DefaultParams()}, atomicTestBuf(t, 64)); err != nil {
		t.Fatalf("WriteDataFile: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}

	// Payload cut short.
	if err := os.Truncate(path, st.Size()-10); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, err := OpenDataFile(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("payload-truncated open: got %v, want ErrTruncated", err)
	}

	// Header cut short.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, err := OpenDataFile(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("header-truncated open: got %v, want ErrTruncated", err)
	}
}
