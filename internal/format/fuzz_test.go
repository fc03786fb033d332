package format

import (
	"os"
	"path/filepath"
	"testing"

	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Fuzz targets: the decoders must never panic or hang on arbitrary
// bytes — they either parse a valid file or return an error. Run with
// `go test -fuzz=FuzzOpenDataFile ./internal/format` to explore; plain
// `go test` exercises the seed corpus.

func validDataFileBytes(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 20, 1, 0)
	path := filepath.Join(dir, "seed.spd")
	if err := writeBuf(nil, path, DataHeader{LOD: lod.DefaultParams(), PayloadCRC: true}, buf); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func validCompressedDataFileBytes(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 200, 2, 0)
	path := filepath.Join(dir, "seed-comp.spd")
	hdr := DataHeader{LOD: lod.DefaultParams(), PayloadCRC: true, Codec: particle.LosslessSpec(particle.Uintah())}
	if err := writeBuf(nil, path, hdr, buf); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func FuzzOpenDataFile(f *testing.F) {
	raw := validDataFileBytes(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(dataMagic))
	f.Add([]byte{})
	mut := append([]byte(nil), raw...)
	mut[9] ^= 0xff
	f.Add(mut)
	comp := validCompressedDataFileBytes(f)
	f.Add(comp)
	f.Add(comp[:len(comp)*3/4])
	cmut := append([]byte(nil), comp...)
	cmut[len(cmut)/2] ^= 0xff
	f.Add(cmut)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.spd")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		df, err := OpenDataFile(path)
		if err != nil {
			return // rejected: fine
		}
		defer df.Close()
		// Anything that opens must be internally consistent enough to
		// read fully without panicking.
		all, err := df.ReadAll()
		// A position-only scan of the same bytes takes the field-skipping
		// decode; it may only be more permissive than the full read, and
		// must agree with it on every position.
		proj, perr := df.Header.Schema.Project(nil)
		if perr != nil {
			t.Fatal(perr)
		}
		pos, perr := scanProjected(df, 0, df.Header.Count, proj)
		if err != nil {
			return
		}
		if perr != nil {
			t.Fatalf("full read succeeded, position-only scan failed: %v", perr)
		}
		for i := 0; i < all.Len(); i++ {
			if a, b := all.Position(i), pos.Position(i); a != b && (a == a || b == b) {
				t.Fatalf("record %d: position-only scan reads %v, full read %v", i, b, a)
			}
		}
		if df.Header.PayloadCRC {
			_ = df.VerifyPayload()
		}
	})
}

func validMetaBytes(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	domain := geom.UnitBox()
	g := geom.NewGrid(domain, geom.I3(2, 1, 1))
	m := &Meta{
		Domain:          domain,
		SimDims:         geom.I3(2, 1, 1),
		PartitionFactor: geom.I3(1, 1, 1),
		AggDims:         geom.I3(2, 1, 1),
		Schema:          particle.Uintah(),
		LOD:             lod.DefaultParams(),
		Total:           10,
		Files: []FileEntry{
			{BoxIndex: 0, AggRank: 0, Name: DataFileName(0), Partition: g.CellBoxLinear(0), Bounds: g.CellBoxLinear(0), Count: 4},
			{BoxIndex: 1, AggRank: 1, Name: DataFileName(1), Partition: g.CellBoxLinear(1), Bounds: g.CellBoxLinear(1), Count: 6},
		},
	}
	if err := WriteMeta(nil, dir, m); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func FuzzReadMeta(f *testing.F) {
	raw := validMetaBytes(f)
	f.Add(raw)
	f.Add(raw[:20])
	f.Add([]byte(metaMagic))
	f.Add([]byte{})
	f.Add(metaImageWithCount(f, 1<<27))
	for _, name := range []string{"../B/file_0.spd", "/etc/passwd", "", DataFileName(0)} {
		f.Add(metaImageWithNames(f, DataFileName(0), name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFileName), data, 0o644); err != nil {
			t.Skip()
		}
		m, err := ReadMeta(dir)
		if err != nil {
			return
		}
		// A successfully parsed meta must satisfy its own invariants.
		if err := m.Validate(); err != nil {
			t.Fatalf("ReadMeta returned invalid metadata: %v", err)
		}
	})
}
