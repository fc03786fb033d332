package particle

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spio/internal/geom"
)

// testBlock builds a Uintah-schema record block with id-like ids,
// constant-ish stress, and random positions — the shape real workloads
// hand the codecs.
func testBlock(t *testing.T, n int, seed int64) (*Schema, []byte) {
	t.Helper()
	schema := Uintah()
	r := rand.New(rand.NewSource(seed))
	buf := NewBuffer(schema, n)
	for i := 0; i < n; i++ {
		pos := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		stress := make([]float64, 9)
		for k := range stress {
			stress[k] = 1.5 // constant: flate should crush it
		}
		buf.Append(pos, stress,
			[]float64{1000 + r.Float64()},
			[]float64{1e-6},
			[]float64{float64(i + 7)},
			[]float64{float64(i % 4)})
	}
	return schema, buf.Encode()
}

func TestCodecRoundTripLossless(t *testing.T) {
	schema, records := testBlock(t, 1000, 1)
	for _, spec := range []Spec{{}, LosslessSpec(schema)} {
		comp, err := CompressBlock(schema, spec, records)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressBlock(schema, comp, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, records) {
			t.Fatalf("spec %+v: round trip not byte-identical", spec)
		}
	}
}

func TestCodecLosslessShrinks(t *testing.T) {
	schema, records := testBlock(t, 4096, 2)
	comp, err := CompressBlock(schema, LosslessSpec(schema), records)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(records) {
		t.Errorf("lossless compression grew the block: %d -> %d bytes", len(records), len(comp))
	}
	t.Logf("lossless: %d -> %d bytes (%.1f%%)", len(records), len(comp), 100*float64(len(comp))/float64(len(records)))
}

func TestCodecQuantizeErrorBound(t *testing.T) {
	const bound = 1e-3
	schema, records := testBlock(t, 2000, 3)
	spec := LossySpec(schema, bound)
	comp, err := CompressBlock(schema, spec, records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBlock(schema, comp, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(schema, records)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(schema, got)
	if err != nil {
		t.Fatal(err)
	}
	pos := want.Float64Field(0)
	posDec := dec.Float64Field(0)
	for i := range pos {
		if d := math.Abs(pos[i] - posDec[i]); d > bound {
			t.Fatalf("component %d: error %g exceeds bound %g", i, d, bound)
		}
	}
	// Non-coordinate fields must survive bit-exactly even under a lossy
	// spec.
	for fi := 1; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		if f.Kind != Float64 {
			continue
		}
		a, b := want.Float64Field(fi), dec.Float64Field(fi)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("lossless field %q drifted at %d", f.Name, i)
			}
		}
	}
}

// TestCodecQuantizeStaysInRange is the regression test for the
// partition-boundary overshoot spioinspect -verify caught: rounding to
// the quantization grid can land up to step/2 past the column's true
// maximum, decoding a boundary particle to just outside its partition
// (e.g. y = 1.0000147 in a unit domain). The decoder must clamp back
// to the encoded range.
func TestCodecQuantizeStaysInRange(t *testing.T) {
	schema := PositionOnly()
	buf := NewBuffer(schema, 64)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 64; i++ {
		// Values packed against the upper boundary, including exactly 1.0:
		// the worst case for round-up overshoot.
		buf.Append([]float64{1 - r.Float64()*1e-4, 1.0, 0.5 + r.Float64()*0.5})
	}
	want, _ := Decode(schema, buf.Encode())
	for _, bound := range []float64{1e-3, 1e-4, 1e-6} {
		comp, err := CompressBlock(schema, LossySpec(schema, bound), buf.Encode())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressBlock(schema, comp, 64)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(schema, got)
		if err != nil {
			t.Fatal(err)
		}
		a, b := want.Float64Field(0), dec.Float64Field(0)
		for k := 0; k < 3; k++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for i := k; i < len(a); i += 3 {
				mn, mx = math.Min(mn, a[i]), math.Max(mx, a[i])
			}
			for i := k; i < len(b); i += 3 {
				if b[i] > mx || b[i] < mn {
					t.Fatalf("bound %g component %d: decoded %v escapes original range [%v, %v]", bound, k, b[i], mn, mx)
				}
				if d := math.Abs(a[i] - b[i]); d > bound {
					t.Fatalf("bound %g component %d: error %g exceeds bound", bound, k, d)
				}
			}
		}
	}
}

func TestCodecQuantizeFallbackOnNonFinite(t *testing.T) {
	schema := PositionOnly()
	buf := NewBuffer(schema, 4)
	buf.Append([]float64{1, 2, 3})
	buf.Append([]float64{math.NaN(), 2, 3})
	records := buf.Encode()
	comp, err := CompressBlock(schema, LossySpec(schema, 1e-3), records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBlock(schema, comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The fallback is lossless, so even the NaN round-trips bit-exactly.
	if !bytes.Equal(got, records) {
		t.Fatal("non-finite fallback was not byte-identical")
	}
}

func TestCodecDeltaFallbackOnNonInteger(t *testing.T) {
	schema := MustSchema([]Field{
		{Name: PositionField, Kind: Float64, Components: 3},
		{Name: "id", Kind: Float64, Components: 1},
	})
	buf := NewBuffer(schema, 4)
	buf.Append([]float64{1, 2, 3}, []float64{1.5}) // not an integer id
	buf.Append([]float64{4, 5, 6}, []float64{2.5})
	records := buf.Encode()
	comp, err := CompressBlock(schema, LosslessSpec(schema), records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBlock(schema, comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, records) {
		t.Fatal("delta fallback was not byte-identical")
	}
}

func TestCodecEmptyBlock(t *testing.T) {
	schema := Uintah()
	comp, err := CompressBlock(schema, LosslessSpec(schema), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBlock(schema, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty block decoded to %d bytes", len(got))
	}
}

func TestCodecSpecValidate(t *testing.T) {
	schema := Uintah()
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{}, true},
		{LosslessSpec(schema), true},
		{LossySpec(schema, 1e-3), true},
		{Spec{Fields: []FieldCodec{{ID: CodecRaw}}}, false},                      // wrong arity
		{Spec{Fields: make([]FieldCodec, schema.NumFields())}, true},             // all raw
		{LossySpec(schema, 0), false},                                            // zero bound
		{Spec{Fields: append(make([]FieldCodec, 5), FieldCodec{ID: 99})}, false}, // unknown id
	}
	for i, c := range cases {
		err := c.spec.Validate(schema)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
	// Quantize on a float32 field is rejected.
	bad := LosslessSpec(schema)
	bad.Fields[schema.FieldIndex("type")] = FieldCodec{ID: CodecQuantize, ErrBound: 1}
	if bad.Validate(schema) == nil {
		t.Error("quantize on float32 field validated")
	}
}

func TestParseCodecSpec(t *testing.T) {
	schema := Uintah()
	for _, s := range []string{"", "none", "raw"} {
		spec, err := ParseCodecSpec(schema, s)
		if err != nil || !spec.IsRaw() {
			t.Errorf("ParseCodecSpec(%q) = %+v, %v", s, spec, err)
		}
	}
	spec, err := ParseCodecSpec(schema, "lossless")
	if err != nil || spec.IsRaw() || spec.Lossy() {
		t.Errorf("lossless: %+v, %v", spec, err)
	}
	spec, err = ParseCodecSpec(schema, "lossy:1e-3")
	if err != nil || !spec.Lossy() {
		t.Errorf("lossy: %+v, %v", spec, err)
	}
	for _, s := range []string{"lossy:", "lossy:-1", "lossy:x", "zstd"} {
		if _, err := ParseCodecSpec(schema, s); err == nil {
			t.Errorf("ParseCodecSpec(%q) accepted", s)
		}
	}
}

// TestDecompressBlockHostile throws mutated frames at the decoder: it
// must error or succeed, never panic or over-allocate past the count
// bound.
func TestDecompressBlockHostile(t *testing.T) {
	schema, records := testBlock(t, 64, 4)
	comp, err := CompressBlock(schema, LosslessSpec(schema), records)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		m := append([]byte(nil), comp...)
		for k := 0; k < 1+r.Intn(4); k++ {
			m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
		}
		if r.Intn(4) == 0 {
			m = m[:r.Intn(len(m)+1)]
		}
		got, err := DecompressBlock(schema, m, 64)
		if err == nil && len(got) != 64*schema.Stride() {
			t.Fatalf("trial %d: no error but %d bytes", trial, len(got))
		}
		checkPickedAgainstFull(t, schema, m, 64, got, err)
	}

	// A deflate payload that gives the whole column and then does not end
	// — its final block cut off — or does not end there — bytes after the
	// final block — used to be served: only further output was looked for.
	fields := splitFields(t, schema, comp)
	for name, damage := range map[string]func(p []byte) []byte{
		"no final block":              func(p []byte) []byte { return p[:len(p)-5] },
		"bytes after the final block": func(p []byte) []byte { return append(p, 0) },
		"a stream after the stream":   func(p []byte) []byte { return append(p, 1, 0, 0, 0xff, 0xff) },
	} {
		var m []byte
		for fi, ff := range fields {
			if fi == 0 {
				if ff.id != CodecShuffleDeflate {
					t.Fatalf("the position is coded %v, not shuffle+deflate", ff.id)
				}
				ff.payload = damage(append([]byte(nil), ff.payload...))
			}
			m = append(binary.AppendUvarint(append(m, byte(ff.id)), uint64(len(ff.payload))), ff.payload...)
		}
		_, err := DecompressBlock(schema, m, 64)
		if want := `particle: field "position": inflate: `; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: %v, want an error starting %q", name, err, want)
		}
		if _, err := DecompressPickedInto(schema, m, 64, make([]byte, len(records)), nil, 0, 64, &boxNothing, nil); err == nil {
			t.Errorf("%s: the position-first decode accepts it", name)
		}
	}
}

// boxNothing and boxLowX are the boxes the hostile tests drive the
// row-picking decode with: a block without survivors, which inflates
// nothing after the position, and one whose survivors depend on the
// decoded bytes — x in [0, 16] and anything else, so a few of
// testBlock's positions (x in [0, 100)) and half of testBlockF's (x = 0,
// 1, …, 31).
var (
	boxNothing = geom.EmptyBox()
	boxLowX    = geom.NewBox(geom.V3(0, math.Inf(-1), math.Inf(-1)), geom.V3(16, math.Inf(1), math.Inf(1)))
)

// refSelect is the selection a box makes of records [lo, hi) of a record
// image, by geom.Box.ContainsClosed one record at a time: what both
// kernels are held to.
func refSelect(recs []byte, stride, lo, hi int, box geom.Box) []int32 {
	var sel []int32
	for i := lo; i < hi; i++ {
		if box.ContainsClosed(PositionAt(recs, i*stride)) {
			sel = append(sel, int32(i-lo))
		}
	}
	return sel
}

// checkPickedAgainstFull runs the row-picking decode on a frame the full
// decode has already judged (full, fullErr). It sees the same hostile
// bytes, and must survive them; it may accept a frame the full decode
// rejects — damage inside a payload it never inflates — never the
// reverse; and it picks the rows the full decode's positions put in the
// box, each of them the full decode's record.
func checkPickedAgainstFull(t testing.TB, schema *Schema, frame []byte, count int, full []byte, fullErr error) {
	t.Helper()
	stride := schema.Stride()
	for name, box := range map[string]geom.Box{"nothing": boxNothing, "low x": boxLowX} {
		part := make([]byte, count*stride)
		picked, err := DecompressPickedInto(schema, frame, count, part, nil, 0, count, &box, nil)
		if fullErr != nil {
			continue
		}
		if err != nil {
			t.Fatalf("box %s: full decode accepted a frame the picking decode rejects: %v", name, err)
		}
		if want := refSelect(full, stride, 0, count, box); !slices.Equal(picked, want) {
			t.Fatalf("box %s: picked rows %v, the full decode's positions give %v", name, picked, want)
		}
		for _, i := range picked {
			if o := int(i) * stride; !bytes.Equal(part[o:o+stride], full[o:o+stride]) {
				t.Fatalf("box %s: picked record %d differs from the full decode", name, i)
			}
		}
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	schema := Uintah()
	_, records := testBlockF(schema, 32)
	comp, _ := CompressBlock(schema, LosslessSpec(schema), records)
	f.Add(comp, 32)
	f.Add(refCompressBlock(f, schema, LosslessSpec(schema), records), 32) // as files written before the plane cut hold it
	fast, _ := CompressBlock(schema, FastSpec(schema), records)
	f.Add(fast, 32)
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 1}, 1)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1<<12 {
			return
		}
		got, err := DecompressBlock(schema, data, count)
		// The field-skipping decode sees the same hostile frame: it may
		// accept one the full decode rejects (damage inside a payload it
		// never inflates), never the reverse, and what it does decode is
		// the full decode's position.
		posOnly := make([]bool, schema.NumFields())
		posOnly[0] = true
		part := make([]byte, count*schema.Stride())
		_, perr := DecompressPickedInto(schema, data, count, part, posOnly, 0, count, nil, nil)
		// So does the row-picking decode, with no survivors and with some.
		checkPickedAgainstFull(t, schema, data, count, got, err)
		if err != nil {
			return
		}
		if perr != nil {
			t.Fatalf("full decode accepted a frame the position-only decode rejects: %v", perr)
		}
		for i := 0; i < count; i++ {
			if o := i * schema.Stride(); !bytes.Equal(part[o:o+24], got[o:o+24]) {
				t.Fatalf("record %d: position-only decode differs from the full decode", i)
			}
		}
		// Whatever decoded must re-encode and decode to the same bytes.
		re, err := CompressBlock(schema, LosslessSpec(schema), got)
		if err != nil {
			t.Fatalf("recompress of decoded block: %v", err)
		}
		back, err := DecompressBlock(schema, re, count)
		if err != nil {
			t.Fatalf("decode of recompressed block: %v", err)
		}
		if !bytes.Equal(back, got) {
			t.Fatal("lossless re-round-trip drifted")
		}
	})
}

// testBlockF is testBlock without the *testing.T, for fuzz seeding.
func testBlockF(schema *Schema, n int) (*Schema, []byte) {
	buf := NewBuffer(schema, n)
	for i := 0; i < n; i++ {
		buf.Append([]float64{float64(i), 1, 2}, make([]float64, 9),
			[]float64{1}, []float64{2}, []float64{float64(i)}, []float64{0})
	}
	return schema, buf.Encode()
}

// noisyBlock builds a Uintah block whose stress tensor is pure entropy
// (random mantissa and exponent) while position, id, and type stay
// structured.
func noisyBlock(t *testing.T, n int) (*Schema, []byte) {
	t.Helper()
	schema := Uintah()
	r := rand.New(rand.NewSource(9))
	buf := NewBuffer(schema, n)
	for i := 0; i < n; i++ {
		pos := []float64{float64(i) * 0.001, float64(i) * 0.002, 3}
		stress := make([]float64, 9)
		for k := range stress {
			stress[k] = r.Float64() * math.Pow(2, float64(r.Intn(40)-20))
		}
		buf.Append(pos, stress, []float64{1000}, []float64{1e-6},
			[]float64{float64(i)}, []float64{0})
	}
	return schema, buf.Encode()
}
