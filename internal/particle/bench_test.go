package particle

import (
	"math"
	"slices"
	"testing"

	"spio/internal/geom"
)

func BenchmarkEncode32K(b *testing.B) {
	buf := Uniform(Uintah(), geom.UnitBox(), 32768, 7, 0)
	b.SetBytes(buf.Bytes())
	var scratch []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = buf.EncodeRecords(scratch[:0], 0, buf.Len())
	}
}

func BenchmarkDecode32K(b *testing.B) {
	buf := Uniform(Uintah(), geom.UnitBox(), 32768, 7, 0)
	data := buf.Encode()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewBuffer(Uintah(), buf.Len())
		if err := dst.DecodeRecords(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBounds32K(b *testing.B) {
	buf := Uniform(Uintah(), geom.UnitBox(), 32768, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buf.Bounds()
	}
}

func BenchmarkGenerateUniform32K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Uniform(Uintah(), geom.UnitBox(), 32768, int64(i), 0)
	}
}

func BenchmarkAppendFrom(b *testing.B) {
	src := Uniform(Uintah(), geom.UnitBox(), 4096, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewBuffer(Uintah(), 4096)
		for j := 0; j < src.Len(); j++ {
			dst.AppendFrom(src, j)
		}
	}
}

// BenchmarkCompressFile is the lossless encode of one data file of the
// benchmark's checkpoint (32768 clustered Uintah particles in LOD order,
// cut into blocks as a file is), per record byte.
func BenchmarkCompressFile(b *testing.B) {
	schema := Uintah()
	spec := LosslessSpec(schema)
	blocks := lodBlocks(Clustered(schema, geom.UnitBox(), 32768, 4, 1, 0), 5)
	var total, stored int
	var dst []byte
	for _, blk := range blocks {
		total += len(blk)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stored = 0
		for _, blk := range blocks {
			var err error
			if dst, err = AppendCompressedBlock(dst[:0], schema, spec, blk); err != nil {
				b.Fatal(err)
			}
			stored += len(dst)
		}
	}
	b.ReportMetric(float64(stored)/float64(total), "ratio")
}

// BenchmarkSelect is the select step of a box read on one full block
// (8192 clustered Uintah records in LOD order) by each way the positions
// can arrive: "records" is the records kernel over the AoS block (a raw
// chunk, a cached view); "planes" is the planes kernel over the block's
// inflated position planes plus the positions of the picked rows alone,
// what a compressed block's position costs after its inflate; and
// "unshuffle-select" is the same from the planes through a whole position
// image, as a compressed block decoded before the planes kernel. "index"
// is the index kernel on the cell index of one full chunk of the same
// records, under their bounds, with a box as much smaller than them as
// a serve_hot box is than the files it reads (it keeps 1 in 18.5).
func BenchmarkSelect(b *testing.B) {
	schema := Uintah()
	stride := schema.Stride()
	blocks := generatorBlocks()["clustered"]
	recs := blocks[len(blocks)-2]
	count := len(recs) / stride
	planes := positionPlanes(recs, stride)
	q := geom.NewBox(geom.V3(0.3, 0.3, 0.3), geom.V3(0.8, 0.8, 0.8))
	dst := make([]byte, len(recs))
	var sel []int32
	run := func(name string, step func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(24 * count))
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(len(sel))/float64(count), "kept")
		})
	}
	run("records", func() { sel = SelectClosed(sel[:0], recs, stride, &q) })
	run("planes", func() {
		sel = selectPlanes(sel[:0], planes, count, 0, count, &q)
		unshuffleRows(dst, planes, stride, 0, 8, 3, count, 0, sel)
	})
	run("unshuffle-select", func() {
		unshuffleToRecords(dst, planes, stride, 0, 8, 3, count)
		sel = SelectClosed(sel[:0], dst, stride, &q)
	})
	chunk := slices.Concat(blocks...)[:IndexChunkRecords*stride]
	bounds := geom.EmptyBox()
	for off := 0; off < len(chunk); off += stride {
		bounds = bounds.Union(geom.Box{Lo: PositionAt(chunk, off), Hi: PositionAt(chunk, off)})
	}
	side := bounds.Size().Mul(math.Cbrt(1 / 18.5))
	qi := geom.Box{Lo: bounds.Center().Sub(side.Mul(0.5)), Hi: bounds.Center().Add(side.Mul(0.5))}
	img := BuildCellIndex(chunk, stride, bounds)
	count = IndexChunkRecords
	run("index", func() { sel = SelectIndexed(sel[:0], img, 0, IndexChunkRecords, bounds, &qi) })
}
