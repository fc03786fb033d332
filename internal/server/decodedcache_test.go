package server

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

func TestDecodedCacheDisabled(t *testing.T) {
	for _, cap := range []int64{0, -1} {
		if c := NewDecodedCache(cap); c != nil {
			t.Errorf("NewDecodedCache(%d) != nil", cap)
		}
	}
	var c *DecodedCache
	if st := c.Stats(); st != (DecodedCacheStats{}) {
		t.Errorf("nil Stats() = %+v", st)
	}
}

func TestDecodedCacheHitMissEvict(t *testing.T) {
	c := NewDecodedCache(100)
	f := c.ForFile("a")
	if f.GetBlock(0) != nil {
		t.Fatal("hit on empty cache")
	}
	f.PutBlock(0, make([]byte, 40))
	f.PutBlock(1, make([]byte, 40))
	if f.GetBlock(0) == nil || f.GetBlock(1) == nil {
		t.Fatal("resident blocks missing")
	}
	// Touch 0 so 1 is LRU, then overflow: 1 must go, 0 must stay.
	f.GetBlock(0)
	f.PutBlock(2, make([]byte, 40))
	if f.GetBlock(1) != nil {
		t.Error("LRU block survived eviction")
	}
	if f.GetBlock(0) == nil || f.GetBlock(2) == nil {
		t.Error("MRU blocks evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Used > 100 {
		t.Errorf("Used = %d exceeds capacity", st.Used)
	}
	if st.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2", st.Blocks)
	}
	if st.Hits == 0 || st.Misses == 0 || st.BytesFromCache == 0 || st.BytesDecoded != 120 {
		t.Errorf("counters off: %+v", st)
	}
}

func TestDecodedCacheFilesAreIsolated(t *testing.T) {
	c := NewDecodedCache(1 << 10)
	a, b := c.ForFile("a"), c.ForFile("b")
	blk := []byte{1, 2, 3}
	a.PutBlock(7, blk)
	if b.GetBlock(7) != nil {
		t.Error("block leaked across files")
	}
	if got := a.GetBlock(7); !bytes.Equal(got, blk) {
		t.Errorf("GetBlock = %v", got)
	}
}

func TestDecodedCacheDuplicateAndEmptyPuts(t *testing.T) {
	c := NewDecodedCache(1 << 10)
	f := c.ForFile("a")
	first := []byte{1, 1, 1}
	f.PutBlock(0, first)
	f.PutBlock(0, []byte{2, 2, 2}) // raced duplicate: first insert wins
	if got := f.GetBlock(0); !bytes.Equal(got, first) {
		t.Errorf("duplicate put replaced the shared slice: %v", got)
	}
	f.PutBlock(1, nil) // uncollectable by byte-based eviction: dropped
	if f.GetBlock(1) != nil {
		t.Error("empty block cached")
	}
	if st := c.Stats(); st.Blocks != 1 || st.Used != 3 {
		t.Errorf("occupancy %+v after dup/empty puts", st)
	}
}

// TestDecodedCacheRejectsOversizedBlock: a block larger than the whole
// tier used to be pushed to the front, after which the eviction loop
// emptied the tier and finally evicted the new block too — everything
// lost and nothing gained. It is refused before the insert and leaves no
// trace but the miss that preceded it; Holds, which a scan asks before
// it goes through the tier at all, draws the same line.
func TestDecodedCacheRejectsOversizedBlock(t *testing.T) {
	c := NewDecodedCache(10)
	f := c.ForFile("a")
	f.PutBlock(0, []byte{1, 2, 3, 4})
	f.PutBlock(1, []byte{5, 6, 7, 8})
	before := c.Stats()
	if f.GetBlock(2) != nil {
		t.Fatal("block 2 cached before it was put")
	}
	f.PutBlock(2, make([]byte, 11))
	if f.GetBlock(0) == nil || f.GetBlock(1) == nil {
		t.Error("an oversized put pushed resident blocks out")
	}
	after := c.Stats()
	before.Misses++                                                             // the lookup of block 2
	before.Hits, before.BytesFromCache = before.Hits+2, before.BytesFromCache+8 // the two lookups just made
	if after != before {
		t.Errorf("an oversized put left a trace: %+v, want %+v", after, before)
	}
	f.PutBlock(3, make([]byte, 10)) // exactly the capacity: fits, alone
	if st := c.Stats(); st.Blocks != 1 || st.Used != 10 || st.Evictions != 2 {
		t.Errorf("a block of exactly the capacity: %+v", st)
	}
	if !f.Holds(10) || f.Holds(11) || !f.Holds(0) {
		t.Error("Holds does not draw the line at the capacity")
	}
}

// TestDecodedTierEndToEnd wires the real two-tier stack the way spiod
// does — BlockCache under the ra seam, DecodedCache in front — and
// hammers it concurrently with both tiers too small for the payload.
// Every read must match ground truth, and both tiers must show real
// traffic. Run under -race this is the serving-layer half of the
// concurrency satellite.
func TestDecodedTierEndToEnd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 4000, 19, 0)
	lod.Shuffle(buf, 9)
	path := filepath.Join(dir, format.DataFileName(0))
	hdr := format.DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 9,
		Codec: particle.LosslessSpec(particle.Uintah())}
	if err := format.WriteDataFile(nil, path, hdr, buf); err != nil {
		t.Fatal(err)
	}
	plain, err := format.OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := plain.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	truth := want.Encode()
	stride := int64(want.Schema().Stride())

	cache := NewBlockCache(16<<10, 2<<10)
	dcache := NewDecodedCache(64 << 10) // a few decoded blocks: constant eviction
	df, err := format.OpenDataFileWith(path, format.OpenOptions{Seam: cache.ReaderFor, Decoded: dcache.ForFile})
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()

	count := df.Header.Count
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				lo := r.Int63n(count)
				hi := lo + 1 + r.Int63n(count-lo)
				got, err := df.ReadRange(lo, hi)
				if err != nil {
					t.Errorf("range [%d,%d): %v", lo, hi, err)
					return
				}
				ref, err := particle.Decode(want.Schema(), truth[lo*stride:hi*stride])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(ref) {
					t.Errorf("range [%d,%d): two-tier read diverged", lo, hi)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Whether the random ranges above ever met a block still resident is up
	// to the interleaving (about one run in 400 at GOMAXPROCS=8 they did
	// not); a level-0 block read twice in a row always does.
	for i := 0; i < 2; i++ {
		if _, err := df.ReadRange(0, 8); err != nil {
			t.Fatal(err)
		}
	}
	st := dcache.Stats()
	if st.Hits == 0 || st.BytesDecoded == 0 {
		t.Errorf("decoded tier saw no traffic: %+v", st)
	}
	if st.Used > 64<<10 {
		t.Errorf("decoded tier overgrew its capacity: %d bytes", st.Used)
	}
	if cache.Stats().Misses == 0 {
		t.Error("compressed tier never read the disk")
	}
}

// TestServerDecodedCacheWiring checks the config plumbing: a server on
// a compressed dataset reports decoded-tier traffic in its snapshot,
// and DecodedCacheBytes < 0 disables the tier.
func TestServerDecodedCacheWiring(t *testing.T) {
	dir := t.TempDir()
	writeDatasetCodec(t, dir, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 400,
		particle.LosslessSpec(particle.Uintah()))

	s := New(Config{Workers: 2})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	ds, err := OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.6, 0.6, 1))
	for i := 0; i < 3; i++ {
		if _, _, err := ds.QueryBox(box, rdr.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if snap.DecodedCache.BytesDecoded == 0 {
		t.Error("default decoded tier saw no inserts on a compressed dataset")
	}
	if snap.DecodedCache.Hits == 0 {
		t.Error("repeat queries produced no decoded-tier hits")
	}

	off := New(Config{Workers: 2, DecodedCacheBytes: -1})
	if off.dcache != nil {
		t.Error("DecodedCacheBytes < 0 did not disable the tier")
	}
}
