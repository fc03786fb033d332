package server

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// TestCompressedBlockCacheEvictionRace is the compressed twin of
// TestBlockCacheEvictionRacesSingleflight (run under -race): a data file
// is served through a block cache far smaller than its payload, so
// concurrent readers spanning codec-block boundaries force constant
// eviction, and every evicted block is recycled into the next miss. The
// compressed file is read through ReadAt's copies (decode on egress), the
// raw one through leased views in place. Every read must still match the
// uncompressed ground truth, and once the cache is purged every block is
// back in the pool.
func TestCompressedBlockCacheEvictionRace(t *testing.T) {
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 4000, 17, 0)
	lod.Shuffle(buf, 9)
	rows := buf.Rows()
	defer rows.Release()
	for _, codec := range []particle.Spec{particle.LosslessSpec(particle.Uintah()), {}} {
		path := filepath.Join(t.TempDir(), format.DataFileName(0))
		hdr := format.DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 9, Codec: codec}
		if err := format.WriteDataFile(nil, path, &hdr, rows, nil); err != nil {
			t.Fatal(err)
		}
		evictionRace(t, path)
	}
}

func evictionRace(t *testing.T, path string) {
	plain, err := format.OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := plain.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	// A cache of a few tiny blocks under a payload of hundreds of KB:
	// nearly every block access evicts something.
	cache := NewBlockCache(4<<10, 1<<10)
	df, err := format.OpenDataFileWith(path, format.OpenOptions{Seam: cache.ReaderFor})
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()

	count := df.Header.Count
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				lo := r.Int63n(count)
				hi := lo + 1 + r.Int63n(count-lo)
				got, err := df.ReadRange(lo, hi)
				if err != nil {
					errs <- err
					return
				}
				ref, err := particle.Decode(want.Schema(), want.Encode()[lo*int64(want.Schema().Stride()):hi*int64(want.Schema().Stride())])
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(ref) {
					t.Errorf("compressed=%v range [%d,%d): read through churning cache diverged", df.Compressed(), lo, hi)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions: the cache was not under pressure")
	}
	if st.Used > 4<<10 {
		t.Errorf("cache overgrew its capacity: %d bytes", st.Used)
	}
	cache.blocks.Purge()
	if n := cache.held.Load(); n != 0 {
		t.Errorf("compressed=%v: %d blocks still out of the pool", df.Compressed(), n)
	}
}

// TestRemoteMatchesLocalCompressed holds the full acceptance criterion:
// the dataset is compressed on disk (block cache holds compressed
// blocks, decode on egress) under a cache far smaller than it — and
// every remote answer is byte-identical to the local one.
func TestRemoteMatchesLocalCompressed(t *testing.T) {
	dir := t.TempDir()
	writeDatasetCodec(t, dir, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 400,
		particle.LosslessSpec(particle.Uintah()))

	s := New(Config{
		Workers:    2,
		CacheBytes: 16 << 10, // much smaller than the compressed payload: eviction under load
		BlockBytes: 2 << 10,
	})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	local, err := rdr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	domain := local.Meta().Domain
	ds, err := OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, q := range []geom.Box{
		geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.5, 0.5, 1)),
		geom.NewBox(geom.V3(0.25, 0.25, 0.25), geom.V3(0.8, 0.9, 1)),
		domain,
	} {
		want, _, err := local.QueryBox(q, rdr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ds.QueryBox(q, rdr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("remote query diverges from local for %v", q)
		}
	}
	want, _, err := local.QueryBox(domain, rdr.Options{NoFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ds.ReadAll(rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("remote ReadAll diverges from local")
	}
}
