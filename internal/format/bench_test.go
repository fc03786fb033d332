package format

import (
	"path/filepath"
	"testing"

	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

func BenchmarkWriteDataFile64K(b *testing.B) {
	dir := b.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 65536, 7, 0)
	hdr := DataHeader{LOD: lod.DefaultParams()}
	b.SetBytes(buf.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeBuf(nil, filepath.Join(dir, "bench.spd"), hdr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadDataFile64K(b *testing.B) {
	dir := b.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 65536, 7, 0)
	path := filepath.Join(dir, "bench.spd")
	if err := writeBuf(nil, path, DataHeader{LOD: lod.DefaultParams()}, buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(buf.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		df, err := OpenDataFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := df.ReadAll(); err != nil {
			b.Fatal(err)
		}
		df.Close()
	}
}

func BenchmarkReadPrefix4K(b *testing.B) {
	dir := b.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 65536, 7, 0)
	path := filepath.Join(dir, "bench.spd")
	if err := writeBuf(nil, path, DataHeader{LOD: lod.DefaultParams()}, buf); err != nil {
		b.Fatal(err)
	}
	df, err := OpenDataFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer df.Close()
	b.SetBytes(4096 * 124)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := df.ReadPrefix(4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetaRoundTrip1KFiles(b *testing.B) {
	dir := b.TempDir()
	domain := geom.UnitBox()
	g := geom.NewGrid(domain, geom.I3(16, 8, 8))
	m := &Meta{
		Domain:          domain,
		SimDims:         geom.I3(32, 16, 16),
		PartitionFactor: geom.I3(2, 2, 2),
		AggDims:         geom.I3(16, 8, 8),
		Schema:          particle.Uintah(),
		LOD:             lod.DefaultParams(),
	}
	for i := 0; i < g.Cells(); i++ {
		box := g.CellBoxLinear(i)
		m.Files = append(m.Files, FileEntry{
			BoxIndex: i, AggRank: i * 8, Name: DataFileName(i * 8),
			Partition: box, Bounds: box, Count: 1000,
		})
		m.Total += 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteMeta(nil, dir, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMeta(dir); err != nil {
			b.Fatal(err)
		}
	}
}
