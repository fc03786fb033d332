package reader

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"spio/internal/cache"
	"spio/internal/core"
	"spio/internal/format"
	"spio/internal/geom"
)

func TestFileCacheAvoidsReopens(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 64, nil)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetFileCache(8); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	q := geom.NewBox(geom.V3(0.1, 0.1, 0.1), geom.V3(0.9, 0.9, 0.9))
	_, st1, err := ds.QueryBox(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st1.FilesOpened != 4 {
		t.Fatalf("first query opened %d files", st1.FilesOpened)
	}
	// Repeat queries hit the cache: no new opens.
	for i := 0; i < 5; i++ {
		_, st, err := ds.QueryBox(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.FilesOpened != 0 {
			t.Fatalf("repeat query %d opened %d files", i, st.FilesOpened)
		}
	}
	cs := ds.CacheStats()
	if cs.Misses != 4 || cs.Hits != 20 {
		t.Errorf("cache stats: %d hits, %d misses", cs.Hits, cs.Misses)
	}
	if cs.BytesFromCache == 0 {
		t.Errorf("cache hits served no bytes")
	}
	if cs.Evictions != 0 {
		t.Errorf("capacity 8 over 4 files evicted %d handles", cs.Evictions)
	}
	// A file cut under its cached handle fails the next query: the read
	// error is the query's, not a short answer.
	if err := os.Truncate(filepath.Join(dir, ds.Meta().Files[0].Name), 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.QueryBox(q, Options{}); err == nil {
		t.Error("a query over a file cut under its cached handle succeeded")
	}
}

func TestFileCacheEviction(t *testing.T) {
	// 16 files, cache of 2: every full sweep reopens (capacity pressure),
	// but handles do not leak and results stay correct.
	dir, all := writeDataset(t, geom.I3(4, 4, 1), geom.I3(1, 1, 1), 16, nil)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetFileCache(2); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for i := 0; i < 3; i++ {
		got, _, err := ds.ReadAll(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != all.Len() {
			t.Fatalf("sweep %d read %d of %d", i, got.Len(), all.Len())
		}
	}
	if n := ds.cache.Load().Stats().Len; n > 2 {
		t.Errorf("cache overgrew: %d entries", n)
	}
	if cs := ds.CacheStats(); cs.Evictions == 0 {
		t.Errorf("3 sweeps of 16 files through a 2-slot cache recorded no evictions")
	}
}

func TestFileCacheConcurrentQueries(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 2, 1), geom.I3(2, 1, 1), 128, nil)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetFileCache(2); err != nil { // smaller than file count: forces eviction under load
		t.Fatal(err)
	}
	defer ds.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := ds.ReadAll(Options{Levels: 1 + (g+i)%4}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFileCachePinIdentity forces, by construction, the interleaving
// TestFileCacheConcurrentQueries only met by scheduler luck: a handle is
// evicted while pinned, its name is reopened, and the pins are released
// oldest first. Pins are by entry, so the old pin's release must not
// unpin the new handle, and no handle may outlive Close.
func TestFileCachePinIdentity(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 16, nil)
	var handles []*os.File
	ds, err := OpenWith(dir, format.OpenOptions{Seam: func(_ string, file io.ReaderAt) io.ReaderAt {
		handles = append(handles, file.(*os.File))
		return file
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetFileCache(1); err != nil {
		t.Fatal(err)
	}
	fc := ds.cache.Load()
	a, b := ds.meta.Files[0].Name, ds.meta.Files[1].Name
	type entry = *cache.Entry[string, *format.DataFile]
	acquire := func(name string) entry {
		t.Helper()
		e, _, err := fc.acquire(ds, name)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	readable := func(what string, e entry) {
		t.Helper()
		if _, err := e.Value.ReadRange(0, 1); err != nil {
			t.Fatalf("%s: pinned handle is not readable: %v", what, err)
		}
	}

	a1 := acquire(a) // pinned for the whole sequence
	b1 := acquire(b) // evicts a1 while it is pinned
	a2 := acquire(a) // a miss: reopens a beside the evicted, still pinned a1
	if a1 == a2 || a1.Value == a2.Value {
		t.Fatal("reopen of an evicted-but-pinned name reused the old entry")
	}
	readable("a1 after its eviction", a1)
	fc.Release(a1)   // the bad order: the old pin goes first and must close only a1
	b2 := acquire(b) // evicts a2, whose own pin must have survived a1's release
	readable("a2 after the old pin's release and its own eviction", a2)
	readable("b1 after its eviction", b1)
	fc.Release(a2)
	fc.Release(b1)
	fc.Release(b2)

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if len(handles) != 4 {
		t.Fatalf("opened %d handles, want 4", len(handles))
	}
	for i, f := range handles {
		// A second Close reports os.ErrClosed; nil means the cache never
		// closed this handle.
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("handle %d (%s) was left open after Close (second close: %v)", i, filepath.Base(f.Name()), err)
		}
	}
}

// TestSetFileCacheBesideQueries: SetFileCache is the one thing about a
// Dataset that changes after it is built, and it may change while queries
// run — each of them keeps the cache it started with, and a cache taken
// away under a query still closes what that query opens through it.
func TestSetFileCacheBesideQueries(t *testing.T) {
	dir, all := writeDataset(t, geom.I3(4, 2, 1), geom.I3(1, 1, 1), 32, nil)
	var mu sync.Mutex
	var handles []*os.File
	ds, err := OpenWith(dir, format.OpenOptions{Seam: func(_ string, file io.ReaderAt) io.ReaderAt {
		mu.Lock()
		handles = append(handles, file.(*os.File))
		mu.Unlock()
		return file
	}})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for n := 0; ; n = 2 - n {
			select {
			case <-stop:
				return
			default:
			}
			if err := ds.SetFileCache(n); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				got, _, err := ds.ReadAll(Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Len() != all.Len() {
					t.Errorf("read %d of %d particles", got.Len(), all.Len())
					return
				}
				ds.CacheStats()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-toggled
	if err := ds.SetFileCache(0); err != nil {
		t.Fatal(err)
	}
	for i, f := range handles {
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("handle %d of %d (%s) was left open (second close: %v)", i, len(handles), filepath.Base(f.Name()), err)
		}
	}
}

func TestFileCacheDisable(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 16, nil)
	ds, _ := Open(dir)
	ds.SetFileCache(4)
	if _, _, err := ds.ReadAll(Options{}); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetFileCache(0); err != nil {
		t.Fatal(err)
	}
	// Disabled: opens count again.
	_, st, err := ds.ReadAll(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesOpened != 2 {
		t.Errorf("after disable, opened %d files", st.FilesOpened)
	}
}

func TestFsckCleanDataset(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 50, nil)
	ds, _ := Open(dir)
	if problems := ds.Fsck(FsckOptions{Deep: true, Checksums: true}); len(problems) != 0 {
		t.Errorf("clean dataset reported problems: %v", problems)
	}
}

func TestFsckDetectsMissingFile(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 50, func(cfg *core.WriteConfig) { cfg.Checksum = true })
	ds, _ := Open(dir)
	os.Remove(filepath.Join(dir, ds.Meta().Files[0].Name))
	problems := ds.Fsck(FsckOptions{})
	if len(problems) != 1 || problems[0].File != ds.Meta().Files[0].Name {
		t.Errorf("problems = %v", problems)
	}
	if problems[0].String() == "" {
		t.Error("empty problem description")
	}
	// A flipped payload byte is a problem once checksums are checked.
	path := filepath.Join(dir, ds.Meta().Files[1].Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if problems := ds.Fsck(FsckOptions{Checksums: true}); len(problems) != 2 {
		t.Errorf("with a flipped payload byte, problems = %v", problems)
	}
}

func TestFsckDetectsSwappedFiles(t *testing.T) {
	// Swap two data files on disk: headers disagree with the metadata
	// counts (and deep check catches out-of-partition particles).
	dir, _ := writeDataset(t, geom.I3(4, 1, 1), geom.I3(1, 1, 1), 50, nil)
	ds, _ := Open(dir)
	a := filepath.Join(dir, ds.Meta().Files[0].Name)
	b := filepath.Join(dir, ds.Meta().Files[3].Name)
	tmp := filepath.Join(dir, "swap.tmp")
	if err := os.Rename(a, tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(b, a); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, b); err != nil {
		t.Fatal(err)
	}
	problems := ds.Fsck(FsckOptions{Deep: true})
	if len(problems) == 0 {
		t.Fatal("swapped files not detected")
	}
}
