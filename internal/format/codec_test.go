package format

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// writeCodecPair writes the same LOD-ordered buffer twice — once raw,
// once under spec — and returns both paths plus the buffer. The raw
// file is the ground truth every compressed read is compared against.
func writeCodecPair(t *testing.T, n int, spec particle.Spec, crc bool) (raw, comp string, buf *particle.Buffer) {
	t.Helper()
	dir := t.TempDir()
	buf = particle.Uniform(particle.Uintah(), geom.UnitBox(), n, 99, 0)
	lod.Shuffle(buf, 3)
	raw = filepath.Join(dir, "raw.spd")
	comp = filepath.Join(dir, "comp.spd")
	hdr := DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 3, PayloadCRC: crc}
	if err := writeBuf(nil, raw, hdr, buf); err != nil {
		t.Fatal(err)
	}
	hdr.Codec = spec
	if err := writeBuf(nil, comp, hdr, buf); err != nil {
		t.Fatal(err)
	}
	return raw, comp, buf
}

func TestCompressedDataFileRoundTrip(t *testing.T) {
	_, comp, buf := writeCodecPair(t, 1777, particle.LosslessSpec(particle.Uintah()), false)
	df, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if !df.Compressed() {
		t.Fatal("Compressed() = false for a compressed file")
	}
	if df.PayloadBytes() >= int64(buf.Len()*buf.Schema().Stride()) {
		t.Errorf("compressed payload %d bytes did not shrink below raw %d",
			df.PayloadBytes(), buf.Len()*buf.Schema().Stride())
	}
	back, err := df.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(buf) {
		t.Error("compressed ReadAll is not byte-identical to the written buffer")
	}
}

// TestCompressedReadRangeMatchesRaw drives random ranges — many
// straddling compressed block boundaries — through both layouts and
// demands byte-identity.
func TestCompressedReadRangeMatchesRaw(t *testing.T) {
	raw, comp, _ := writeCodecPair(t, 2500, particle.LosslessSpec(particle.Uintah()), false)
	rf, err := OpenDataFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	r := rand.New(rand.NewSource(11))
	count := rf.Header.Count
	ranges := [][2]int64{{0, 0}, {0, count}, {count, count}, {1, 2}}
	for i := 0; i < 40; i++ {
		lo := r.Int63n(count + 1)
		hi := lo + r.Int63n(count+1-lo)
		ranges = append(ranges, [2]int64{lo, hi})
	}
	for _, rg := range ranges {
		want, err := rf.ReadRange(rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := cf.ReadRange(rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("range [%d,%d): compressed read diverges from raw", rg[0], rg[1])
		}
	}
}

// TestCompressedLODPrefixValidity is the acceptance criterion: at every
// LOD level boundary, the compressed file's prefix read equals the raw
// file's — compression after the reorder preserved the LOD contract.
func TestCompressedLODPrefixValidity(t *testing.T) {
	raw, comp, _ := writeCodecPair(t, 3000, particle.LosslessSpec(particle.Uintah()), false)
	rf, err := OpenDataFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	p := rf.Header.LOD
	prefix := int64(0)
	for _, lv := range lod.LevelSizes(rf.Header.Count, int64(p.BasePerReader), p.Scale) {
		prefix += lv
		want, err := rf.ReadPrefix(prefix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cf.ReadPrefix(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("LOD prefix %d: compressed read diverges from raw", prefix)
		}
	}
	if prefix != rf.Header.Count {
		t.Fatalf("level sizes sum to %d of %d", prefix, rf.Header.Count)
	}
}

func TestCompressedProjectedRead(t *testing.T) {
	raw, comp, _ := writeCodecPair(t, 900, particle.LosslessSpec(particle.Uintah()), false)
	rf, err := OpenDataFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	proj, err := rf.Header.Schema.Project([]string{particle.PositionField, "id"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanProjected(rf, 100, 800, proj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scanProjected(cf, 100, 800, proj)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("projected compressed read diverges from raw")
	}
}

func TestCompressedVerifyPayload(t *testing.T) {
	_, comp, _ := writeCodecPair(t, 600, particle.LosslessSpec(particle.Uintah()), true)
	df, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	if err := df.VerifyPayload(); err != nil {
		t.Errorf("VerifyPayload on intact compressed file: %v", err)
	}
	df.Close()

	// Flip a payload byte: the CRC covers the stored (compressed) stream.
	data, err := os.ReadFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x01
	if err := os.WriteFile(comp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	df, err = OpenDataFile(comp)
	if err != nil {
		t.Fatal(err) // header is intact; only the payload changed
	}
	defer df.Close()
	if err := df.VerifyPayload(); err == nil {
		t.Error("VerifyPayload passed on a corrupted compressed payload")
	}
}

func TestCompressedTruncationDetected(t *testing.T) {
	_, comp, _ := writeCodecPair(t, 600, particle.LosslessSpec(particle.Uintah()), false)
	data, err := os.ReadFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.spd")
	if err := os.WriteFile(short, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDataFile(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated compressed file: err = %v, want ErrTruncated", err)
	}
}

func TestCompressedEmptyFile(t *testing.T) {
	dir := t.TempDir()
	buf := particle.NewBuffer(particle.Uintah(), 0)
	path := filepath.Join(dir, "empty.spd")
	hdr := DataHeader{LOD: lod.DefaultParams(), Codec: particle.LosslessSpec(particle.Uintah())}
	if err := writeBuf(nil, path, hdr, buf); err != nil {
		t.Fatal(err)
	}
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if !df.Compressed() || df.Header.Count != 0 {
		t.Fatalf("Compressed=%v Count=%d", df.Compressed(), df.Header.Count)
	}
	back, err := df.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("empty compressed file read %d records", back.Len())
	}
}

// TestCompressedOrderedWrite checks a write through an order under a
// codec: the on-disk records must equal applying the permutation first.
func TestCompressedOrderedWrite(t *testing.T) {
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 500, 5, 0)
	order := rand.New(rand.NewSource(6)).Perm(500)
	dir := t.TempDir()
	path := filepath.Join(dir, "ordered.spd")
	hdr := DataHeader{LOD: lod.DefaultParams(), Codec: particle.LosslessSpec(particle.Uintah())}
	rows := buf.Rows()
	defer rows.Release()
	if err := WriteDataFile(nil, path, &hdr, rows, order); err != nil {
		t.Fatal(err)
	}
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	back, err := df.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := particle.NewBuffer(particle.Uintah(), 500)
	for _, idx := range order {
		want.AppendFrom(buf, idx)
	}
	if !back.Equal(want) {
		t.Error("ordered compressed write diverges from permute-then-write")
	}
}
