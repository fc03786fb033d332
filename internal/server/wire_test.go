package server

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"spio/internal/binio"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

func roundTrip(t *testing.T, enc func(e *binio.Writer)) *binio.Reader {
	t.Helper()
	var fb bytes.Buffer
	e := binio.NewWriter(&fb)
	enc(e)
	if e.Err() != nil {
		t.Fatalf("encode: %v", e.Err())
	}
	return binio.NewReader(&fb, "spiod")
}

// The round trips below send values whose fields are all non-zero and
// distinct, so that two fields which traded places on one side would
// decode as each other: a zero u8 and a zero uvarint are the same byte,
// and a codec tested only on zeroes has its order pinned by nothing.

func TestRequestRoundTrip(t *testing.T) {
	want := &rdr.Request{
		Op:    rdr.OpHalo,
		Box:   geom.NewBox(geom.V3(0.1, 0.2, 0.3), geom.V3(0.9, 0.8, 0.7)),
		Point: geom.V3(0.5, math.Inf(1), -0.5),
		K:     17,
		Halo:  0.0625,
		Dims:  geom.I3(8, 6, 5),
		Options: rdr.Options{Levels: 3, SkipLevels: 2, Readers: 7, NoFilter: true,
			Fields: []string{"id", "density"}, PerFileBase: 9},
		Flags: 0x41,
	}
	d := roundTrip(t, func(e *binio.Writer) { encodeRequest(e, "sim@42", want) })
	ref, got, err := decodeRequest(d)
	if err != nil {
		t.Fatal(err)
	}
	if ref != "sim@42" || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %q %+v\nwant %+v", ref, got, want)
	}
}

func TestRespHeaderRoundTrip(t *testing.T) {
	want := &respHeader{Status: statusBudget, Msg: "over budget"}
	d := roundTrip(t, func(e *binio.Writer) { encodeRespHeader(e, want) })
	if got, err := decodeRespHeader(d); err != nil || *got != *want {
		t.Fatalf("got %+v (%v), want %+v", got, err, want)
	}
}

// TestResponsesRoundTrip: the four ops' answers, each with distinct
// parts — a halo's own and ghost rows differ in length and content.
func TestResponsesRoundTrip(t *testing.T) {
	held := particle.RowSegmentsHeld()
	own := particle.Uniform(particle.Uintah(), geom.UnitBox(), 5, 7, 0)
	ghost := particle.Uniform(particle.Uintah(), geom.UnitBox(), 3, 8, 1)
	ownRows, ghostRows := own.Rows(), ghost.Rows()
	dists := []float64{0.25, 0.5, 1, 2, 4}
	for _, c := range []struct {
		op          uint8
		a           rdr.Answer
		rows, ghost *particle.Buffer // what a.Rows and a.Ghost hold
	}{
		{rdr.OpQueryBox, rdr.Answer{Rows: ownRows}, own, nil},
		{rdr.OpKNN, rdr.Answer{Rows: ownRows, Floats: dists}, own, nil},
		{rdr.OpHalo, rdr.Answer{Rows: ownRows, Ghost: ghostRows}, own, ghost},
		{rdr.OpDensityGrid, rdr.Answer{Floats: []float64{1, 2.5, 4}, Fraction: 0.125, Sampled: 77}, nil, nil},
	} {
		d := roundTrip(t, func(e *binio.Writer) { encodeAnswer(e, c.op, &distinctStats, &c.a) })
		got, err := decodeAnswer(d, c.op, 1<<20)
		if err != nil || got.Stats != distinctStats.Read {
			t.Errorf("op %d: %v", c.op, err)
			continue
		}
		if (c.rows != nil && !got.Rows.Buffer().Equal(c.rows)) || (c.ghost != nil && !got.Ghost.Buffer().Equal(c.ghost)) ||
			!reflect.DeepEqual(got.Floats, c.a.Floats) || got.Fraction != c.a.Fraction || got.Sampled != c.a.Sampled {
			t.Errorf("op %d: answer %+v, want %+v", c.op, got, c.a)
		}
	}
	ownRows.Release()
	ghostRows.Release()
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held", got-held)
	}
}

func TestHelloRoundTripAndBadMagic(t *testing.T) {
	d := roundTrip(t, func(e *binio.Writer) { encodeHello(e, &hello{Version: protoVersion}) })
	h, err := decodeHello(d)
	if err != nil || h.Version != protoVersion {
		t.Fatalf("hello: %v %+v", err, h)
	}
	bad := binio.NewReader(bytes.NewReader([]byte("HTTP/1.1 GET /")), "spiod")
	if _, err := decodeHello(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// distinctStats is a wireStats every field of which is non-zero and
// unlike the others.
var distinctStats = wireStats{
	Read: rdr.Stats{
		FilesOpened: 3, ParticlesRead: 1000, BytesRead: 124000,
		ParticlesKept: 900, CacheHits: 2, BytesFromCache: 4096, Partial: true,
	},
	QueueWait: 12345, Service: 67890,
}

func TestStatsRoundTrip(t *testing.T) {
	want := &distinctStats
	d := roundTrip(t, func(e *binio.Writer) { encodeStats(e, want) })
	got, err := decodeStats(d)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestBufferRoundTripBitExact(t *testing.T) {
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 257, 7, 0)
	d := roundTrip(t, func(e *binio.Writer) { encodeBuffer(e, buf) })
	got, err := decodeBuffer(d, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(buf) {
		t.Fatal("decoded buffer differs")
	}
	if !bytes.Equal(got.Encode(), buf.Encode()) {
		t.Fatal("decoded buffer is not byte-identical")
	}
}

func TestBufferDecodeRespectsLimit(t *testing.T) {
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 64, 7, 0)
	d := roundTrip(t, func(e *binio.Writer) { encodeBuffer(e, buf) })
	if _, err := decodeBuffer(d, 16); err == nil {
		t.Fatal("oversized buffer accepted")
	}
}

// TestBufferMultiBlockRoundTrip crosses the segment boundary of the rows
// on either side: a buffer of several row blocks — including a ragged
// tail — must round-trip bit-exactly, over a stream and through the frame
// reader, and a frame torn anywhere inside its payload must be refused,
// either way, with no row segment left held.
func TestBufferMultiBlockRoundTrip(t *testing.T) {
	held := particle.RowSegmentsHeld()
	// decode decodes body over a stream, or as the body of a frame read
	// through a frameIn.
	decode := func(body []byte, framed bool) (*particle.Buffer, error) {
		if !framed {
			return decodeBuffer(binio.NewReader(bytes.NewReader(body), "spiod"), 1<<26)
		}
		var stream bytes.Buffer
		if err := sendBody(&stream, body); err != nil {
			return nil, err
		}
		var got *particle.Buffer
		err := newFrameIn(&stream).read(1<<26, "buffer", func(d *binio.Reader, size int64) (err error) {
			got, err = decodeBuffer(d, size)
			return err
		})
		return got, err
	}
	for _, n := range []int{particle.RowBlock, particle.RowBlock + 1, 2*particle.RowBlock + 137} {
		buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, 7, 0)
		var fb bytes.Buffer
		e := binio.NewWriter(&fb)
		encodeBuffer(e, buf)
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
		for _, framed := range []bool{false, true} {
			got, err := decode(fb.Bytes(), framed)
			if err != nil {
				t.Fatalf("n=%d framed=%v: %v", n, framed, err)
			}
			if !bytes.Equal(got.Encode(), buf.Encode()) {
				t.Fatalf("n=%d framed=%v: multi-block wire round trip is not byte-identical", n, framed)
			}
			for _, cut := range []int{1, 50, buf.Schema().Stride(), fb.Len() / 2} {
				if _, err := decode(fb.Bytes()[:fb.Len()-cut], framed); err == nil {
					t.Errorf("n=%d framed=%v: frame torn %d bytes short accepted", n, framed, cut)
				}
			}
		}
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held", got-held)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	for _, s := range []*particle.Schema{particle.Uintah(), particle.PositionOnly()} {
		d := roundTrip(t, func(e *binio.Writer) { format.EncodeSchema(e, s) })
		got, err := format.DecodeSchema(d)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(s) {
			t.Fatalf("schema %v decoded as %v", s, got)
		}
	}
}

// TestFloatsBlobNamesRoundTrip: the response decoders' values round-trip
// and their counts are held to their limits.
func TestFloatsBlobNamesRoundTrip(t *testing.T) {
	d := roundTrip(t, func(e *binio.Writer) { encodeFloats(e, []float64{1, math.NaN(), math.Copysign(0, -1)}) })
	fs, err := decodeFloats(d, 10)
	if err != nil || len(fs) != 3 || fs[0] != 1 || !math.IsNaN(fs[1]) || math.Signbit(fs[2]) == false {
		t.Fatalf("floats: %v %v", fs, err)
	}
	d = roundTrip(t, func(e *binio.Writer) { encodeBlob(e, []byte("json-ish")) })
	b, err := decodeBlob(d, 100)
	if err != nil || string(b) != "json-ish" {
		t.Fatalf("blob: %q %v", b, err)
	}
	d = roundTrip(t, func(e *binio.Writer) { encodeNames(e, []string{"a", "b@3"}) })
	ns, err := decodeNames(d)
	if err != nil || len(ns) != 2 || ns[1] != "b@3" {
		t.Fatalf("names: %v %v", ns, err)
	}
	// A response one past each limit is refused, though every byte it
	// announces is there.
	d = roundTrip(t, func(e *binio.Writer) { encodeFloats(e, make([]float64, 11)) })
	if _, err := decodeFloats(d, 10); err == nil {
		t.Error("11 floats decoded under a limit of 10")
	}
	d = roundTrip(t, func(e *binio.Writer) { encodeBlob(e, make([]byte, 101)) })
	if _, err := decodeBlob(d, 100); err == nil {
		t.Error("a 101-byte blob decoded under a limit of 100")
	}
	d = roundTrip(t, func(e *binio.Writer) { encodeNames(e, make([]string, maxWireNames+1)) })
	if _, err := decodeNames(d); err == nil {
		t.Error("maxWireNames+1 names decoded")
	}
}

// TestFrameLimit: a frame longer than the reader's bound is refused on
// its length prefix, before a byte of its body is read.
func TestFrameLimit(t *testing.T) {
	var out bytes.Buffer
	if err := sendBody(&out, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(out.Bytes())
	if _, err := recvBody(src, 50); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if src.Len() != 100 {
		t.Errorf("the refusal read %d bytes of the body", 100-src.Len())
	}
	body, err := recvBody(bytes.NewReader(out.Bytes()), 100)
	if err != nil || len(body) != 100 {
		t.Fatalf("frame: %d bytes, %v", len(body), err)
	}
}

// TestRequestBoundsEnforced pins the server-side request-parameter
// bounds, one case a bound: a hostile K or Dims in a single request
// frame used to reach make() sizes in the query layer (KNN result
// buffers, DensityGrid cell arrays) before any dataset was even
// resolved — a one-frame denial of service.
func TestRequestBoundsEnforced(t *testing.T) {
	cases := []struct {
		name string
		req  rdr.Request
	}{
		{"knn k", rdr.Request{Op: rdr.OpKNN, K: maxReqK + 1}},
		{"grid axis", rdr.Request{Op: rdr.OpDensityGrid, Dims: geom.I3(maxReqGridAxis+1, 1, 1)}},
		{"grid cells", rdr.Request{Op: rdr.OpDensityGrid, Dims: geom.I3(1<<12, 1<<12, 2)}},
		{"levels", rdr.Request{Op: rdr.OpQueryBox, Options: rdr.Options{Levels: maxReqLevels + 1}}},
		{"readers", rdr.Request{Op: rdr.OpQueryBox, Options: rdr.Options{Readers: maxReqReaders + 1}}},
		{"skip at levels", rdr.Request{Op: rdr.OpQueryBox, Options: rdr.Options{Levels: 3, SkipLevels: 3}}},
		{"skip alone", rdr.Request{Op: rdr.OpQueryBox, Options: rdr.Options{SkipLevels: maxReqLevels + 1}}},
		{"fields", rdr.Request{Op: rdr.OpQueryBox, Options: rdr.Options{Fields: make([]string, maxWireFields+1)}}},
		{"base", rdr.Request{Op: rdr.OpQueryBox, Options: rdr.Options{PerFileBase: maxReqBase + 1}}},
	}
	for _, tc := range cases {
		d := roundTrip(t, func(e *binio.Writer) { encodeRequest(e, "sim", &tc.req) })
		if _, _, err := decodeRequest(d); err == nil {
			t.Errorf("%s: hostile request decoded without error: %+v", tc.name, tc.req)
		}
	}
	// The limits admit every legitimate request: a maximal one still
	// round-trips.
	ok := rdr.Request{
		Op: rdr.OpDensityGrid, K: maxReqK, Dims: geom.I3(1<<11, 1<<11, 1),
		Options: rdr.Options{Levels: maxReqLevels, SkipLevels: maxReqLevels - 1, Readers: maxReqReaders},
	}
	d := roundTrip(t, func(e *binio.Writer) { encodeRequest(e, "sim", &ok) })
	if _, _, err := decodeRequest(d); err != nil {
		t.Fatalf("maximal legitimate request rejected: %v", err)
	}
}

// TestSchemaComponentBound rejects a schema field claiming a hostile
// component count: stride arithmetic multiplies by it, so an unchecked
// value scales every later allocation.
func TestSchemaComponentBound(t *testing.T) {
	d := roundTrip(t, func(e *binio.Writer) {
		e.Uvarint(1)
		e.Str("pos")
		e.U8(uint8(particle.Float64))
		e.Uvarint(1<<10 + 1) // format's component bound, plus one
	})
	if _, err := format.DecodeSchema(d); err == nil {
		t.Fatal("schema with hostile component count accepted")
	}
}

func TestTruncatedDecodeFailsCleanly(t *testing.T) {
	var fb bytes.Buffer
	e := binio.NewWriter(&fb)
	encodeRequest(e, "x", &rdr.Request{Op: rdr.OpQueryBox})
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	for cut := 0; cut < fb.Len(); cut += 7 {
		d := binio.NewReader(bytes.NewReader(fb.Bytes()[:cut]), "spiod")
		if _, _, err := decodeRequest(d); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, fb.Len())
		}
	}
}
