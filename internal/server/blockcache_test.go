package server

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// countingReaderAt counts ReadAt calls into an in-memory byte slice.
type countingReaderAt struct {
	data  []byte
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	if off >= int64(len(c.data)) {
		return 0, io.EOF
	}
	n := copy(p, c.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func randomBytes(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestBlockCacheReadAtMatchesBase(t *testing.T) {
	data := randomBytes(10_000, 1)
	base := &countingReaderAt{data: data}
	c := NewBlockCache(1<<20, 512)
	ra := c.ReaderFor("f", base)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		off := r.Int63n(int64(len(data) + 100))
		n := r.Intn(2000)
		got := make([]byte, n)
		want := make([]byte, n)
		gn, gerr := ra.ReadAt(got, off)
		wn, werr := base.ReadAt(want, off)
		if gn != wn || (gerr == nil) != (werr == nil) {
			t.Fatalf("off=%d n=%d: cache (%d, %v) vs base (%d, %v)", off, n, gn, gerr, wn, werr)
		}
		if !bytes.Equal(got[:gn], want[:wn]) {
			t.Fatalf("off=%d n=%d: content mismatch", off, n)
		}
	}
}

func TestBlockCacheHitsAvoidBaseReads(t *testing.T) {
	data := randomBytes(8192, 3)
	base := &countingReaderAt{data: data}
	c := NewBlockCache(1<<20, 1024)
	ra := c.ReaderFor("f", base)
	buf := make([]byte, len(data))
	for i := 0; i < 5; i++ {
		if _, err := ra.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := base.reads.Load(); got != 8 {
		t.Errorf("base read %d times, want 8 (one per block)", got)
	}
	st := c.Stats()
	if st.Misses != 8 || st.Hits != 32 {
		t.Errorf("stats: %+v", st)
	}
	if st.BytesFromDisk != 8192 || st.BytesFromCache != 4*8192 {
		t.Errorf("byte split: %+v", st)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	data := randomBytes(64*1024, 4)
	base := &countingReaderAt{data: data}
	// Capacity of 4 blocks over a 64-block file: sweeps must evict.
	c := NewBlockCache(4*1024, 1024)
	ra := c.ReaderFor("f", base)
	buf := make([]byte, len(data))
	for i := 0; i < 3; i++ {
		if _, err := ra.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions == 0 || st.Used > 4*1024 || st.Blocks > 4 {
		t.Errorf("after sweeps under capacity pressure: %+v", st)
	}
}

func TestBlockCacheSingleflight(t *testing.T) {
	// A base that blocks until all readers arrive would deadlock; instead
	// verify the invariant post-hoc: N concurrent cold reads of the same
	// block perform exactly one base read.
	data := randomBytes(4096, 5)
	base := &countingReaderAt{data: data}
	c := NewBlockCache(1<<20, 4096)
	ra := c.ReaderFor("f", base)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			if _, err := ra.ReadAt(buf, 0); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := base.reads.Load(); got != 1 {
		t.Errorf("%d base reads for one block under 32 concurrent readers", got)
	}
}

// gatedReaderAt serves a deterministic pattern, parking the read of one
// designated offset until the gate is closed — the lever that holds a
// singleflight load in flight while the test drives evictions past it.
type gatedReaderAt struct {
	size    int64
	gate    chan struct{}
	gateOff int64
}

func patternByte(off int64) byte { return byte(off*7 + off>>8) }

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if g.gate != nil && off == g.gateOff {
		<-g.gate
	}
	n := 0
	for ; n < len(p) && off+int64(n) < g.size; n++ {
		p[n] = patternByte(off + int64(n))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// TestBlockCacheEvictionRacesSingleflight: block 0's load is parked on the
// gate while other goroutines sweep enough distinct blocks through a
// one-block cache to evict everything repeatedly — including block 0 the
// moment it lands. Readers parked on that load must still get the right
// bytes: each holds a pin, so an evicted block is not recycled under
// them. (The
// interleaving itself, and the accounting after it, is forced and checked
// in internal/cache: TestForcedEvictionRacesFlight.)
func TestBlockCacheEvictionRacesSingleflight(t *testing.T) {
	const bs, nBlocks = 512, 8
	base := &gatedReaderAt{size: bs * nBlocks, gate: make(chan struct{}), gateOff: 0}
	c := NewBlockCache(bs, bs) // capacity: exactly one block
	ra := c.ReaderFor("f", base)
	check := func(off int64) {
		buf := make([]byte, bs)
		if _, err := ra.ReadAt(buf, off); err != nil {
			t.Error(err)
		}
		for i, b := range buf {
			if want := patternByte(off + int64(i)); b != want {
				t.Errorf("byte %d of block at %d: got %#x want %#x", i, off, b, want)
				break
			}
		}
	}
	// Readers of block 0: one starts the gated load, the rest park on it.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(0)
		}()
	}
	// Churn the other blocks through the one-block cache meanwhile.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		check((1 + r.Int63n(nBlocks-1)) * bs)
	}
	close(base.gate) // release block 0's load into the churn
	wg.Wait()
	check(0) // likely evicted already: a fresh read reloads it
	if c.Stats().Evictions == 0 {
		t.Error("no evictions: the race this test exists for never happened")
	}
}

func TestBlockCacheTailEOF(t *testing.T) {
	data := randomBytes(1000, 6) // not block-aligned
	c := NewBlockCache(1<<20, 512)
	ra := c.ReaderFor("f", &countingReaderAt{data: data})
	// Read exactly to the end: full read, nil or EOF per contract.
	buf := make([]byte, 1000)
	if n, err := ra.ReadAt(buf, 0); n != 1000 || (err != nil && err != io.EOF) {
		t.Fatalf("full read: %d, %v", n, err)
	}
	// Read past the end: short count with EOF.
	if n, err := ra.ReadAt(buf, 600); n != 400 || err != io.EOF {
		t.Fatalf("tail read: %d, %v", n, err)
	}
	// Read entirely past the end.
	if n, err := ra.ReadAt(buf, 5000); n != 0 || err != io.EOF {
		t.Fatalf("past-end read: %d, %v", n, err)
	}
}

func TestBlockCacheKeysAreIsolated(t *testing.T) {
	a := &countingReaderAt{data: bytes.Repeat([]byte{0xAA}, 1024)}
	b := &countingReaderAt{data: bytes.Repeat([]byte{0xBB}, 1024)}
	c := NewBlockCache(1<<20, 512)
	ra := c.ReaderFor("a", a)
	rb := c.ReaderFor("b", b)
	bufA := make([]byte, 1024)
	bufB := make([]byte, 1024)
	if _, err := ra.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if bufA[0] != 0xAA || bufB[0] != 0xBB {
		t.Fatal("cache mixed content across keys")
	}
}

// TestBlockCacheNoEmptyTailBlocks is the regression test for the
// zero-length tail-block leak: a file sized an exact multiple of
// blockSize ends with an empty block at EOF, which added 0 to used —
// unreclaimable by the byte-based evictor — so Stats().Blocks grew
// without bound under series churn.
func TestBlockCacheNoEmptyTailBlocks(t *testing.T) {
	const bs = 512
	c := NewBlockCache(1<<20, bs)
	buf := make([]byte, bs)
	for series := 0; series < 50; series++ {
		data := randomBytes(4*bs, int64(series)) // exact multiple of bs
		ra := c.ReaderFor(string(rune('a'+series)), &countingReaderAt{data: data})
		// Read exactly at EOF: lands on the empty block past the data.
		if n, err := ra.ReadAt(buf, 4*bs); n != 0 || err != io.EOF {
			t.Fatalf("series %d: EOF read: %d, %v", series, n, err)
		}
	}
	st := c.Stats()
	if st.Blocks != 0 {
		t.Errorf("%d zero-length blocks cached; empty tails must not be cached", st.Blocks)
	}
	if st.Used != 0 {
		t.Errorf("used = %d after caching only empty tails", st.Used)
	}
	// The same EOF block re-read still answers correctly (it just misses).
	data := randomBytes(4*bs, 99)
	ra := c.ReaderFor("z", &countingReaderAt{data: data})
	for i := 0; i < 3; i++ {
		if n, err := ra.ReadAt(buf, 4*bs); n != 0 || err != io.EOF {
			t.Fatalf("repeat EOF read: %d, %v", n, err)
		}
	}
	if st := c.Stats(); st.Blocks != 0 || st.Used != 0 {
		t.Errorf("empty tail crept into the cache: %+v", st)
	}
}

// recordingReaderAt remembers the array behind every buffer it was asked
// to fill, by its first byte, with the array's size.
type recordingReaderAt struct {
	data   []byte
	arrays map[*byte]int
}

func (r *recordingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.arrays[&p[0]] = cap(p)
	return (&countingReaderAt{data: r.data}).ReadAt(p, off)
}

// TestBlockCacheHoldsTailBlocksAtTheirSize: the capacity bounds the
// memory the cache pins, not just the bytes it counts — a short tail
// block must not keep the blockSize array it was read into alive, and is
// charged its own size, so 64 small files fit where four blocks would.
func TestBlockCacheHoldsTailBlocksAtTheirSize(t *testing.T) {
	const capacity, blockSize = 16 << 10, 4 << 10
	c := NewBlockCache(capacity, blockSize)
	arrays := map[*byte]int{}
	for i := 0; i < 64; i++ {
		data := randomBytes(100+i, int64(i)) // every file is one short block
		got := make([]byte, len(data))
		base := &recordingReaderAt{data: data, arrays: arrays}
		if _, err := c.ReaderFor(string(rune('a'+i)), base).ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("file %d: content mismatch", i)
		}
	}
	var pinned int
	c.blocks.Each(func(_ blockKey, v cached) {
		data := v.data
		if size, readInto := arrays[&data[0]]; readInto {
			pinned += size // the block is the front of the array the read filled
		} else {
			pinned += cap(data)
		}
	})
	if st := c.Stats(); st.Blocks != 64 || int64(pinned) != st.Used || pinned > capacity {
		t.Errorf("%d blocks counted as %d bytes pin %d bytes (capacity %d)", st.Blocks, st.Used, pinned, capacity)
	}
}

func TestBlockCacheNegativeOffset(t *testing.T) {
	c := NewBlockCache(1<<20, 512)
	ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(1024, 7)})
	n, err := ra.ReadAt(make([]byte, 16), -1)
	if n != 0 || err == nil {
		t.Fatalf("negative offset: %d, %v", n, err)
	}
	// os.File.ReadAt semantics: an invalid offset is a *fs.PathError, not
	// a truncation signal.
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		t.Errorf("negative offset misreported as truncation: %v", err)
	}
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		t.Errorf("negative offset error is %T, want *fs.PathError", err)
	}
}

// view lends the bytes at off through the cache's reader, failing the
// test on an error.
func view(t *testing.T, ra io.ReaderAt, off int64) ([]byte, interface{ Release() }) {
	t.Helper()
	v, lease, err := ra.(*cachedReaderAt).ViewAt(off)
	if err != nil {
		t.Fatalf("view at %d: %v", off, err)
	}
	return v, lease
}

// TestViewSurvivesEvictionWhilePinned: a view is its block's lease. In a
// one-block cache, a held view's block is evicted by the next read, and
// every read after that recycles the blocks the cache let go of — but not
// the leased one, whose bytes stay what they were until Release, after
// which it goes back to the pool.
func TestViewSurvivesEvictionWhilePinned(t *testing.T) {
	const bs, nBlocks = 512, 8
	c := NewBlockCache(bs, bs) // capacity: exactly one block
	ra := c.ReaderFor("f", &gatedReaderAt{size: bs * nBlocks})
	held, lease := view(t, ra, 0)
	want := append([]byte(nil), held...)
	buf := make([]byte, bs)
	for i := 0; i < 50; i++ {
		if _, err := ra.ReadAt(buf, (1+int64(i)%(nBlocks-1))*bs); err != nil {
			t.Fatal(err)
		}
		// The indexed block and the leased one, and no more: each miss
		// refilled the block the one before it let go of.
		if got := c.held.Load(); got != 2 {
			t.Fatalf("after read %d: %d blocks out of the pool, want 2", i, got)
		}
	}
	if st := c.Stats(); st.Evictions < 50 {
		t.Fatalf("%d evictions: the leased block was not pushed out", st.Evictions)
	}
	if !bytes.Equal(held, want) {
		t.Fatal("a leased view changed after its block was evicted and the pool refilled")
	}
	lease.Release()
	if got := c.held.Load(); got != 1 {
		t.Errorf("after Release: %d blocks out of the pool, want 1 (the indexed one)", got)
	}
}

// TestBlocksReturnToPoolOnEveryExit drives the block cache through every
// way a pooled block can leave a fill or a lease — a failing base, the
// empty block at EOF, a short tail block, Purge and Resize under a pin, a
// scan whose callback fails in the middle of a view, a record straddling
// two views — and checks each time that the blocks out of the pool come
// back to where they started once nothing is indexed or leased.
func TestBlocksReturnToPoolOnEveryExit(t *testing.T) {
	const bs = 1000 // no record is aligned to it: every scan straddles
	settled := func(t *testing.T, c *BlockCache) {
		t.Helper()
		c.blocks.Purge()
		if got := c.held.Load(); got != 0 {
			t.Errorf("%d blocks still out of the pool", got)
		}
	}
	t.Run("failing base", func(t *testing.T) {
		c := NewBlockCache(1<<20, bs)
		if _, err := c.ReaderFor("f", failingReaderAt{}).ReadAt(make([]byte, 10), 0); err == nil {
			t.Fatal("a failing base read succeeded")
		}
		if got := c.held.Load(); got != 0 {
			t.Errorf("a failed fill kept %d blocks", got)
		}
	})
	t.Run("empty block at EOF", func(t *testing.T) {
		c := NewBlockCache(1<<20, bs)
		ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(4*bs, 1)})
		if n, err := ra.ReadAt(make([]byte, 10), 4*bs); n != 0 || err != io.EOF {
			t.Fatalf("read at EOF: %d, %v", n, err)
		}
		if got := c.held.Load(); got != 0 {
			t.Errorf("the empty block kept %d blocks", got)
		}
	})
	// A tail under half a block is copied out at its size and its block
	// goes back; one of half a block or more stays in its block, charged
	// all of it, and goes back once dropped.
	for _, tail := range []struct {
		name             string
		size, held, used int64
	}{{"tail block", bs / 3, 0, bs / 3}, {"tail block of half a block", bs / 2, 1, bs}} {
		t.Run(tail.name, func(t *testing.T) {
			c := NewBlockCache(1<<20, bs)
			ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(int(tail.size), 2)})
			if _, err := ra.ReadAt(make([]byte, tail.size), 0); err != nil {
				t.Fatal(err)
			}
			if st, got := c.Stats(), c.held.Load(); st.Blocks != 1 || got != tail.held || st.Used != tail.used {
				t.Errorf("%d blocks indexed of %d bytes, %d out of the pool; want 1 of %d, %d", st.Blocks, st.Used, got, tail.used, tail.held)
			}
			settled(t, c)
		})
	}
	for _, teardown := range []string{"Purge", "Resize"} {
		t.Run(teardown+" with a pinned entry", func(t *testing.T) {
			c := NewBlockCache(1<<20, bs)
			ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(4*bs, 3)})
			v, lease := view(t, ra, bs)
			want := append([]byte(nil), v...)
			if teardown == "Purge" {
				c.blocks.Purge()
			} else {
				c.blocks.Resize(0)
			}
			if got := c.held.Load(); got != 1 {
				t.Errorf("%s under a lease: %d blocks out of the pool, want the leased one", teardown, got)
			}
			if !bytes.Equal(v, want) {
				t.Errorf("%s recycled a leased block", teardown)
			}
			lease.Release()
			settled(t, c)
		})
	}

	// A raw data file scanned through the cache, lent view by view.
	dir := t.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 200, 5, 0)
	path := filepath.Join(dir, format.DataFileName(0))
	rows := buf.Rows()
	defer rows.Release()
	if err := format.WriteDataFile(nil, path, &format.DataHeader{LOD: lod.DefaultParams()}, rows, nil); err != nil {
		t.Fatal(err)
	}
	scan := func(t *testing.T, fn func(recs []byte, picked []int32) error) (*BlockCache, error) {
		t.Helper()
		c := NewBlockCache(2*bs, bs) // two blocks of a 25 KB file: the scan evicts as it goes
		df, err := format.OpenDataFileWith(path, format.OpenOptions{Seam: c.ReaderFor})
		if err != nil {
			t.Fatal(err)
		}
		defer df.Close()
		return c, df.Scan(0, df.Header.Count, nil, nil, fn)
	}
	t.Run("index image of a block's size", func(t *testing.T) {
		c := NewBlockCache(1<<20, bs)
		ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(4*bs, 4)}).(*cachedReaderAt)
		img, lease, err := ra.Derive(0, func() ([]byte, error) { return make([]byte, bs), nil })
		if err != nil || len(img) != bs {
			t.Fatalf("Derive: %d bytes, %v", len(img), err)
		}
		lease.Release()
		settled(t, c) // an image dropped into the pool would take held below 0
	})
	t.Run("index build fails on a block", func(t *testing.T) {
		const failing = 10
		c := NewBlockCache(1<<20, bs)
		var ra io.ReaderAt
		df, err := format.OpenDataFileWith(path, format.OpenOptions{Seam: func(path string, f io.ReaderAt) io.ReaderAt {
			ra = c.ReaderFor(path, failingFrom{f, failing * bs})
			return ra
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer df.Close()
		if _, err := ra.ReadAt(make([]byte, failing*bs), 0); err != nil {
			t.Fatal(err)
		}
		held, used := c.held.Load(), c.Stats().Used
		box := geom.UnitBox()
		if err := df.Scan(0, df.Header.Count, nil, &box, func([]byte, []int32) error { return nil }); err == nil {
			t.Fatal("a scan whose index could not be built succeeded")
		}
		if st := c.Stats(); c.held.Load() != held || st.Used != used || st.Indexes != 0 || st.IndexBuilds != 1 || st.IndexBuildBytes != 0 {
			t.Errorf("held %d, used %d before the failed build; after: held %d, %+v", held, used, c.held.Load(), st)
		}
		settled(t, c)
	})
	t.Run("callback fails mid-view", func(t *testing.T) {
		calls := 0
		c, err := scan(t, func([]byte, []int32) error {
			if calls++; calls == 4 {
				return errors.New("callback failed")
			}
			return nil
		})
		if err == nil {
			t.Fatal("the callback's error did not end the scan")
		}
		settled(t, c)
	})
	t.Run("record straddling two views", func(t *testing.T) {
		stride := buf.Schema().Stride()
		var got []byte
		c, err := scan(t, func(recs []byte, _ []int32) error {
			if len(recs) == stride {
				got = append(got, recs...) // the straddlers, one record each
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no record straddled two views")
		}
		settled(t, c)
	})
}

type failingReaderAt struct{}

// failingFrom reads its ReaderAt up to byte from and fails past it.
type failingFrom struct {
	io.ReaderAt
	from int64
}

func (f failingFrom) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.from {
		return 0, errors.New("disk on fire")
	}
	return f.ReaderAt.ReadAt(p, off)
}

func (failingReaderAt) ReadAt([]byte, int64) (int, error) { return 0, errors.New("disk on fire") }

// TestViewAtHitAllocatesNothing: a lent view on a hit is one pinned cache
// lookup, and its lease is the cache's own entry — no closure, no box.
func TestViewAtHitAllocatesNothing(t *testing.T) {
	c := NewBlockCache(1<<20, 512)
	ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(2048, 8)})
	_, lease := view(t, ra, 600)
	lease.Release()
	if n := testing.AllocsPerRun(100, func() {
		_, lease := view(t, ra, 700)
		lease.Release()
	}); n != 0 {
		t.Errorf("ViewAt + Release on a hit allocates %v times", n)
	}
}

// TestDeriveHitAllocatesNothing: a kept index is lent as a view is, its
// lease the cache's own entry.
func TestDeriveHitAllocatesNothing(t *testing.T) {
	c := NewBlockCache(1<<20, 512)
	ra := c.ReaderFor("f", &countingReaderAt{data: randomBytes(2048, 8)}).(*cachedReaderAt)
	build := func() ([]byte, error) { return make([]byte, 100), nil }
	_, lease, err := ra.Derive(3, build)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if n := testing.AllocsPerRun(100, func() {
		_, lease, err := ra.Derive(3, build)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}); n != 0 {
		t.Errorf("Derive + Release on a hit allocates %v times", n)
	}
}

// byteCountingReaderAt counts the bytes its ReaderAt returned.
type byteCountingReaderAt struct {
	io.ReaderAt
	n *atomic.Int64
}

func (b byteCountingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := b.ReaderAt.ReadAt(p, off)
	b.n.Add(int64(n))
	return n, err
}

// TestIndexesAreNotDiskBytes: the cell indexes a box scan builds are
// kept beside the blocks and counted apart from them. The bytes the disk
// gave are exactly BytesFromDisk; Hits, Misses and Blocks count blocks,
// and the indexes show as builds and as held bytes inside Used.
func TestIndexesAreNotDiskBytes(t *testing.T) {
	const n = 3*particle.IndexChunkRecords + 100
	dir := t.TempDir()
	path := filepath.Join(dir, format.DataFileName(0))
	rows := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, 5, 0).Rows()
	defer rows.Release()
	if err := format.WriteDataFile(nil, path, &format.DataHeader{LOD: lod.DefaultParams()}, rows, nil); err != nil {
		t.Fatal(err)
	}
	var disk atomic.Int64
	c := NewBlockCache(64<<20, 64<<10)
	df, err := format.OpenDataFileWith(path, format.OpenOptions{Seam: func(path string, f io.ReaderAt) io.ReaderAt {
		return c.ReaderFor(path, byteCountingReaderAt{f, &disk})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	box := geom.NewBox(geom.V3(0.2, 0.3, 0.1), geom.V3(0.6, 0.5, 0.9))
	for range 3 {
		if err := df.Scan(100, n, nil, &box, func([]byte, []int32) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.BytesFromDisk != disk.Load() {
		t.Errorf("the disk gave %d bytes, BytesFromDisk says %d", disk.Load(), st.BytesFromDisk)
	}
	var indexBytes int64
	for k := range int64(4) {
		indexBytes += int64(particle.CellIndexBytes(int(min(n-k*particle.IndexChunkRecords, particle.IndexChunkRecords))))
	}
	if st.IndexBuilds != 4 || st.IndexBuildBytes != indexBytes || st.Indexes != 4 || st.IndexBytes != indexBytes {
		t.Errorf("4 indexes of %d bytes built once and kept: %+v", indexBytes, st)
	}
	// Every whole block costs the block size, and so does the file's tail
	// if it fills half a block; a shorter one costs its length.
	blocks := int((disk.Load() + c.blockSize - 1) / c.blockSize)
	used := disk.Load()
	if tail := used % c.blockSize; tail >= c.blockSize/2 {
		used += c.blockSize - tail
	}
	if st.Blocks != blocks || st.Misses != int64(blocks) || st.Used != used+indexBytes {
		t.Errorf("%d blocks of %d bytes read: %+v", blocks, disk.Load(), st)
	}
	if st.Hits == 0 {
		t.Errorf("three scans lent their views without a block hit: %+v", st)
	}
}

// TestWarmMissAllocatesNoBlock: once a block has been evicted, the next
// miss refills it instead of allocating and clearing a fresh one. Blocks
// are full-size 256 KiB ones; the budget is a kilobyte. It reads the
// largest of ten misses, collector off: no warm miss may allocate.
func TestWarmMissAllocatesNoBlock(t *testing.T) {
	const bs = DefaultBlockSize
	c := NewBlockCache(bs, bs) // one block: every read below misses and evicts
	ra := c.ReaderFor("f", &gatedReaderAt{size: 4 * bs})
	p := make([]byte, 64)
	next := int64(0)
	miss := func() {
		next = (next + 1) % 4
		if _, err := ra.ReadAt(p, next*bs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		miss()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	largest := uint64(0)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		miss()
		runtime.ReadMemStats(&after)
		largest = max(largest, after.TotalAlloc-before.TotalAlloc)
	}
	if largest >= 1<<10 {
		t.Errorf("a warm miss allocates %d bytes", largest)
	}
	if st := c.Stats(); st.Misses != 20 || st.Hits != 0 {
		t.Errorf("not every read missed: %+v", st)
	}
}

// TestWarmTailMissAllocatesNoBlock: a file's tail block that fills at
// least half a block is read into a pooled block and kept there, charged
// the block's full size — no two of three such files fit a one-block
// cache together, so reading them in turn misses every time — and once
// warm such a miss allocates no block. The files differ in length, so a block that went back to the
// pool at a tail's length would come out too short for the next file's
// tail. It reads the largest of ten misses, collector off, as
// TestWarmMissAllocatesNoBlock does.
func TestWarmTailMissAllocatesNoBlock(t *testing.T) {
	const bs = DefaultBlockSize
	c := NewBlockCache(bs, bs)
	sizes := []int64{bs / 2, bs/2 + 1, bs - 1}
	var files []io.ReaderAt
	for i, size := range sizes {
		files = append(files, c.ReaderFor(string(rune('a'+i)), &gatedReaderAt{size: size}))
	}
	p := make([]byte, 64)
	next, disk := 0, int64(0)
	miss := func() {
		next = (next + 1) % len(files)
		off := sizes[next] - int64(len(p))
		if _, err := files[next].ReadAt(p, off); err != nil {
			t.Fatalf("file %d's last %d bytes: %v", next, len(p), err)
		}
		if p[len(p)-1] != patternByte(sizes[next]-1) {
			t.Fatalf("file %d's last byte reads %d, want %d", next, p[len(p)-1], patternByte(sizes[next]-1))
		}
		disk += sizes[next]
	}
	for i := 0; i < 10; i++ {
		miss()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	largest := uint64(0)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		miss()
		runtime.ReadMemStats(&after)
		largest = max(largest, after.TotalAlloc-before.TotalAlloc)
	}
	if largest >= 1<<10 {
		t.Errorf("a warm tail miss allocates %d bytes", largest)
	}
	if st := c.Stats(); st.Misses != 20 || st.Hits != 0 || st.Used != bs || st.BytesFromDisk != disk {
		t.Errorf("tail blocks not charged their full size, or not %d bytes from disk: %+v", disk, st)
	}
}
