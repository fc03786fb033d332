package format

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spio/internal/binio"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// metaImageWithCount is a valid metadata image whose file count is
// replaced by count, with the checksum recomputed: what a hostile or
// corrupt peer can send, small and correctly summed.
func metaImageWithCount(tb testing.TB, count uint64) []byte {
	tb.Helper()
	raw := validMetaBytes(tb)
	// Walk the image to its file count.
	d := binio.NewReader(bytes.NewReader(raw), "format")
	d.Bytes(make([]byte, len(metaMagic)))
	d.U32()
	d.U32()
	bodyAt := d.N()
	d.Box()
	d.Idx3()
	d.Idx3()
	d.Idx3()
	if _, err := DecodeSchema(d); err != nil {
		tb.Fatal(err)
	}
	d.Uvarint()
	d.Uvarint()
	d.U8()
	d.U64()
	at := d.N()
	if n := d.Uvarint(); d.Err() != nil || n != 2 || d.N() != at+1 {
		tb.Fatalf("file count %d at offset %d: %v", n, at, d.Err())
	}
	body := binary.AppendUvarint(append([]byte(nil), raw[bodyAt:at]...), count)
	body = append(body, raw[at+1:]...)
	image := append([]byte(nil), raw[:bodyAt-4]...)
	image = binary.LittleEndian.AppendUint32(image, crc32.ChecksumIEEE(body))
	return append(image, body...)
}

// TestDecodeMetaHostileCount: a file count the image's bytes do not bear
// out is an error that costs what the bytes can decode to. Before the
// table grew as it decoded, the count alone sized it — 24 GB for 2²⁷
// rows, before one was read or the checksum compared — and the process
// died of it.
func TestDecodeMetaHostileCount(t *testing.T) {
	for _, count := range []uint64{1 << 27, 1<<28 - 1} {
		image := metaImageWithCount(t, count)
		if len(image) > 1<<10 {
			t.Fatalf("image of %d bytes", len(image))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeMeta(bytes.NewReader(image))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("count %d over %d bytes accepted", count, len(image))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("count %d: refusing the image allocated %d bytes", count, got)
		}
	}
	// The same walk with the count left alone is the image itself.
	if m, err := DecodeMeta(bytes.NewReader(metaImageWithCount(t, 2))); err != nil || len(m.Files) != 2 {
		t.Fatalf("image with its own count: %v", err)
	}
}

// metaImageWithNames is validMetaBytes with its entries' names replaced
// by names, in order, and the checksum recomputed: a table no writer
// makes, which a reader decodes from the bytes.
func metaImageWithNames(tb testing.TB, names ...string) []byte {
	tb.Helper()
	image := validMetaBytes(tb)
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	for i, name := range names {
		old := str(DataFileName(i))
		if bytes.Count(image, old) != 1 {
			tb.Fatalf("entry %d's name is not once in the image", i)
		}
		image = bytes.Replace(image, old, str(name), 1)
	}
	binary.LittleEndian.PutUint32(image[len(metaMagic)+4:], crc32.ChecksumIEEE(image[len(metaMagic)+8:]))
	return image
}

// TestDecodeMetaRefusesNamesOutsideTheDataset: every reader joins an
// entry's name to the dataset directory, and a split copies the file
// under it, so a name that is not one file of that directory — or that
// two entries share — is refused from the bytes, with the entry's index.
func TestDecodeMetaRefusesNamesOutsideTheDataset(t *testing.T) {
	for _, tc := range []struct{ name, err string }{
		{"../B/file_0.spd", "file 1 name"},
		{"..", "file 1 name"},
		{".", "file 1 name"},
		{"", "file 1 name"},
		{"/etc/passwd", "file 1 name"},
		{"sub/file_1.spd", "file 1 name"},
		{"file_1.spd/", "file 1 name"},
		{DataFileName(0), "files 0 and 1 are both named"},
	} {
		_, err := DecodeMeta(bytes.NewReader(metaImageWithNames(t, DataFileName(0), tc.name)))
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("entry named %q: error %v, want one with %q", tc.name, err, tc.err)
			continue
		}
		// The package says so once, before the image it names.
		if msg := err.Error(); strings.Count(msg, "format:") != 1 || !strings.HasPrefix(msg, "format: metadata: ") {
			t.Errorf("entry named %q: error %q, want %q once, at its start", tc.name, msg, "format: metadata: ")
		}
	}
	if m, err := DecodeMeta(bytes.NewReader(metaImageWithNames(t, "a.spd", "file_0.spd.1"))); err != nil || m.Files[0].Name != "a.spd" {
		t.Fatalf("entries of plain names: %v", err)
	}
}

// TestReadMetaShortUnderAnyPath: the path a short read names is text, not
// a format, so a directory named with a verb neither garbles the message
// nor hides the read error it wraps.
func TestReadMetaShortUnderAnyPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run_100%x")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The image ends four bytes into the domain's first coordinate.
	image := validMetaBytes(t)[:len(metaMagic)+12]
	if err := os.WriteFile(filepath.Join(dir, MetaFileName), image, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadMeta(dir)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated image: error %v, want one wrapping %v", err, io.ErrUnexpectedEOF)
	}
	if want := "format: " + filepath.Join(dir, MetaFileName) + ": short read at offset"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("truncated image: error %q, want it to start %q", err, want)
	}
}

// TestDataHeaderRefusalNamesItsFileOnce: a data file header refused for
// what it says, or cut short, names its file once, under one "format:".
func TestDataHeaderRefusalNamesItsFileOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file_0.spd")
	if err := writeBuf(nil, path, DataHeader{LOD: lod.DefaultParams()}, atomicTestBuf(t, 8)); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The field count is the first byte of the header body, behind the
	// magic, the version and the body's checksum.
	image[len(dataMagic)+8] = 0
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDataFile(path)
	if err == nil || strings.Count(err.Error(), "format:") != 1 || !strings.HasPrefix(err.Error(), "format: "+path+": implausible field count 0") {
		t.Errorf("zero field count: error %v, want one %q naming %s", err, "format:", path)
	}
	if err := os.Truncate(path, int64(len(dataMagic))+6); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDataFile(path)
	if !errors.Is(err, ErrTruncated) || strings.Count(err.Error(), "format:") != 1 || !strings.Contains(err.Error(), path) {
		t.Errorf("short header: error %v, want one %q naming %s and wrapping %v", err, "format:", path, ErrTruncated)
	}
}

// TestDecodeSchemaHostile is the schema decoder's table of refusals, the
// same for a file header and a frame, each made before the value sizes
// anything; the bounds themselves are accepted.
func TestDecodeSchemaHostile(t *testing.T) {
	field := func(e *binio.Writer, name string, kind uint8, comps uint64) {
		e.Str(name)
		e.U8(kind)
		e.Uvarint(comps)
	}
	pos := func(e *binio.Writer) { field(e, particle.PositionField, uint8(particle.Float64), 3) }
	for _, tc := range []struct {
		name string
		enc  func(e *binio.Writer)
		ok   bool
	}{
		{"no fields", func(e *binio.Writer) { e.Uvarint(0) }, false},
		{"field count over the bound", func(e *binio.Writer) { e.Uvarint(maxFields + 1) }, false},
		{"field count 2^40", func(e *binio.Writer) { e.Uvarint(1 << 40) }, false},
		{"name over the bound", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			e.Uvarint(maxFieldName + 1)
		}, false},
		{"unknown kind", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			field(e, "x", 9, 1)
		}, false},
		{"components over the bound", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			field(e, "x", uint8(particle.Float32), maxComponents+1)
		}, false},
		{"components 2^40", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			field(e, "x", uint8(particle.Float64), 1<<40)
		}, false},
		{"components 2^63", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			field(e, "x", uint8(particle.Float64), 1<<63)
		}, false},
		{"no components", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			field(e, "x", uint8(particle.Float64), 0)
		}, false},
		{"components at the bound", func(e *binio.Writer) {
			e.Uvarint(2)
			pos(e)
			field(e, "x", uint8(particle.Float32), maxComponents)
		}, true},
	} {
		var b bytes.Buffer
		tc.enc(binio.NewWriter(&b))
		s, err := DecodeSchema(binio.NewReader(bytes.NewReader(b.Bytes()), "format"))
		if (err == nil) != tc.ok {
			t.Errorf("%s: schema %v, error %v", tc.name, s, err)
		}
	}
}

// TestFileEntryCodecRoundTrip sends a row of the metadata table whose
// fields are all non-zero and distinct, so two that traded places on one
// side would decode as each other; a message a byte short or long is
// refused.
func TestFileEntryCodecRoundTrip(t *testing.T) {
	schema := particle.PositionOnly()
	want := FileEntry{
		BoxIndex:  5,
		AggRank:   7,
		Name:      "file_7.spd",
		Partition: geom.NewBox(geom.V3(1, 2, 3), geom.V3(4, 5, 6)),
		Bounds:    geom.NewBox(geom.V3(1.5, 2.5, 3.5), geom.V3(3.25, 4.25, 5.25)),
		Count:     11,
		FieldMin:  []float64{1.5, 2.5, 3.5},
		FieldMax:  []float64{3.25, 4.25, 5.25},
	}
	var msg bytes.Buffer
	EncodeFileEntry(binio.NewWriter(&msg), &want)
	d := binio.NewReader(bytes.NewReader(msg.Bytes()), "format")
	if got := DecodeFileEntry(d, schema); d.Whole(msg.Len()) != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip: %+v != %+v (%v)", got, want, d.Err())
	}
	for _, torn := range [][]byte{msg.Bytes()[:msg.Len()-1], append(msg.Bytes(), 0)} {
		d := binio.NewReader(bytes.NewReader(torn), "format")
		DecodeFileEntry(d, schema)
		if d.Whole(len(torn)) == nil {
			t.Errorf("entry message of %d bytes accepted", len(torn))
		}
	}
}
