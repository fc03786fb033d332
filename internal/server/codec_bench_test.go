package server

import (
	"math/rand"
	"path/filepath"
	"testing"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// These benchmarks measure what the codec layer buys where it pays
// rent: disk traffic through a byte-bounded block cache that holds
// compressed blocks.

func benchCachedRangeReads(b *testing.B, codec particle.Spec) {
	dir := b.TempDir()
	const n = 32768
	const span = 8192 // one codec block, so raw and compressed fetch the same records
	buf := particle.Clustered(particle.Uintah(), geom.UnitBox(), n, 3, 11, 0)
	lod.Shuffle(buf, 5)
	path := filepath.Join(dir, format.DataFileName(0))
	hdr := format.DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 5, Codec: codec}
	rows := buf.Rows()
	defer rows.Release()
	if err := format.WriteDataFile(nil, path, &hdr, rows, nil); err != nil {
		b.Fatal(err)
	}
	// A cache holding a quarter of the *uncompressed* payload: raw
	// blocks thrash under a working set of the whole file, while the
	// same byte budget keeps a multiple of the working set resident
	// once the cache holds compressed blocks.
	cache := NewBlockCache(int64(n*buf.Schema().Stride()/4), 16<<10)
	df, err := format.OpenDataFileWith(path, format.OpenOptions{Seam: cache.ReaderFor})
	if err != nil {
		b.Fatal(err)
	}
	defer df.Close()

	r := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := span * r.Int63n(n/span)
		if _, err := df.ReadRange(lo, lo+span); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.BytesFromDisk)/float64(b.N), "disk_B/op")
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "cache_hit_ratio")
	b.ReportMetric(float64(df.PayloadBytes()), "payload_B")
}

func BenchmarkCachedRangeReadRaw(b *testing.B) {
	benchCachedRangeReads(b, particle.Spec{})
}

// Quantized positions/velocities (1e-3 absolute bound) are the case
// the cache-capacity-multiplication argument is about: the compressed
// working set fits where the raw one thrashes.
func BenchmarkCachedRangeReadCompressed(b *testing.B) {
	benchCachedRangeReads(b, particle.LossySpec(particle.Uintah(), 1e-3))
}
