package particle

import (
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
