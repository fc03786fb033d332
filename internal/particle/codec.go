package particle

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"spio/internal/geom"
)

// Per-field compression codecs over the AoS record encoding. A block of
// records (already in LOD order — compression happens strictly after the
// reorder, so any block prefix of the file remains a valid LOD prefix)
// is compressed field by field: each field's column is extracted from
// the record image, run through its codec, and framed with the codec
// identity and payload length. The frame is self-describing — the
// decoder follows the per-field codec bytes, never a side-channel spec —
// so a writer is free to fall back per field (and per block) when a
// codec does not apply, and old payloads decode under new specs.
//
// Block layout, fields in schema order:
//
//	codec u8 | payload length uvarint | payload
//
// CodecRaw is id 0 everywhere (disk flag, wire byte, field byte):
// absent/zero always means "the uncompressed AoS bytes", which is what
// keeps pre-codec files and peers readable unchanged.
//
// All (de)compression entry points share pooled codec state (deflater,
// inflater, LZ match table, shuffle scratch — see codec_state.go), so
// steady-state compression of a block stream allocates only the output
// frames themselves.

// CodecID identifies one field compression codec.
type CodecID uint8

const (
	// CodecRaw stores the column bytes verbatim.
	CodecRaw CodecID = 0
	// CodecShuffleDeflate byte-plane-transposes the column (all first
	// bytes, then all second bytes, ...) and deflates the result;
	// lossless for any field. The shuffle groups the slowly-varying
	// sign/exponent bytes of neighbouring values so deflate sees long
	// runs. The payload is one RFC 1951 stream any inflater reads; the
	// encoder (deflate.go) cuts it at the planes, stores the noise and
	// codes each other plane in whichever block form is fewest bits.
	CodecShuffleDeflate CodecID = 1
	// CodecDeltaVarint encodes integer-valued float64 columns (particle
	// ids, type tags) as zigzag varints of consecutive differences;
	// lossless. Falls back to CodecShuffleDeflate when a value is not an
	// exact integer.
	CodecDeltaVarint CodecID = 2
	// CodecQuantize is the error-bounded lossy codec for float64
	// coordinates: per component it stores a minimum and a step, then
	// each value as the uvarint round((v-min)/step). Reconstruction
	// error is at most FieldCodec.ErrBound. Falls back to
	// CodecShuffleDeflate when a value is non-finite or the range is too
	// wide for the bound.
	CodecQuantize CodecID = 3
	// CodecShuffleLZ byte-plane-transposes the column and runs the
	// planes through the fast LZ codec (lz.go) instead of deflate;
	// lossless for any field. It trades a few percent of ratio for
	// several times the codec throughput, which is the right trade
	// wherever the codec competes with the network or a warm cache
	// rather than a cold disk.
	CodecShuffleLZ CodecID = 4

	codecMax = CodecShuffleLZ
)

func (c CodecID) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecShuffleDeflate:
		return "shuffle+deflate"
	case CodecDeltaVarint:
		return "delta+varint"
	case CodecQuantize:
		return "quantize"
	case CodecShuffleLZ:
		return "shuffle+lz"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// FieldCodec is one field's compression choice. ErrBound is meaningful
// only for CodecQuantize: the largest absolute reconstruction error the
// codec may introduce (must be positive).
type FieldCodec struct {
	ID       CodecID
	ErrBound float64
}

// Spec assigns a codec to every field of a schema, in schema order. The
// zero value (no fields) is the raw spec: no compression anywhere.
type Spec struct {
	Fields []FieldCodec
}

// IsRaw reports whether the spec compresses nothing.
func (s Spec) IsRaw() bool {
	for _, f := range s.Fields {
		if f.ID != CodecRaw {
			return false
		}
	}
	return true
}

// Validate checks the spec against a schema: one entry per field (or
// none at all), known codec ids, positive error bounds where required,
// and quantize only on float64 fields.
func (s Spec) Validate(schema *Schema) error {
	if len(s.Fields) == 0 {
		return nil
	}
	if len(s.Fields) != schema.NumFields() {
		return fmt.Errorf("particle: codec spec has %d entries, schema has %d fields", len(s.Fields), schema.NumFields())
	}
	for i, fc := range s.Fields {
		f := schema.Field(i)
		if fc.ID > codecMax {
			return fmt.Errorf("particle: field %q: unknown codec %d", f.Name, fc.ID)
		}
		if fc.ID == CodecQuantize {
			if f.Kind != Float64 {
				return fmt.Errorf("particle: field %q: quantize requires float64, got %v", f.Name, f.Kind)
			}
			if !(fc.ErrBound > 0) || math.IsInf(fc.ErrBound, 0) {
				return fmt.Errorf("particle: field %q: quantize needs a positive finite error bound, got %v", f.Name, fc.ErrBound)
			}
		} else if fc.ErrBound != 0 {
			return fmt.Errorf("particle: field %q: error bound set on lossless codec %v", f.Name, fc.ID)
		}
	}
	return nil
}

// Lossy reports whether any field uses an error-introducing codec.
func (s Spec) Lossy() bool {
	for _, f := range s.Fields {
		if f.ID == CodecQuantize {
			return true
		}
	}
	return false
}

// idLikeField reports whether a field holds integer-valued labels
// (particle ids, material/type tags) that delta-coding exploits.
func idLikeField(f Field) bool {
	return f.Name == "id" || f.Name == "type"
}

// coordField reports whether a field holds spatial coordinates that an
// error-bounded lossy codec may target.
func coordField(f Field) bool {
	return f.Name == PositionField || f.Name == "velocity"
}

// LosslessSpec compresses every field without loss: delta/varint for
// id-like integer fields, byte-shuffle + deflate for everything else.
// It is the disk default, where ratio buys read bandwidth.
func LosslessSpec(schema *Schema) Spec {
	s := Spec{Fields: make([]FieldCodec, schema.NumFields())}
	for i := range s.Fields {
		f := schema.Field(i)
		if idLikeField(f) && f.Kind == Float64 {
			s.Fields[i] = FieldCodec{ID: CodecDeltaVarint}
		} else {
			s.Fields[i] = FieldCodec{ID: CodecShuffleDeflate}
		}
	}
	return s
}

// FastSpec compresses every field without loss, preferring codec
// throughput over the last few percent of ratio: delta/varint for
// id-like integer fields, byte-shuffle + LZ for everything else. It is
// the wire default, where the codec competes with the network and a
// slow codec costs more time than the saved bytes recover.
func FastSpec(schema *Schema) Spec {
	s := Spec{Fields: make([]FieldCodec, schema.NumFields())}
	for i := range s.Fields {
		f := schema.Field(i)
		if idLikeField(f) && f.Kind == Float64 {
			s.Fields[i] = FieldCodec{ID: CodecDeltaVarint}
		} else {
			s.Fields[i] = FieldCodec{ID: CodecShuffleLZ}
		}
	}
	return s
}

// LossySpec is LosslessSpec with error-bounded quantization (absolute
// error at most bound) on float64 coordinate fields (position,
// velocity). Ids and every other field stay lossless.
func LossySpec(schema *Schema, bound float64) Spec {
	s := LosslessSpec(schema)
	for i := range s.Fields {
		f := schema.Field(i)
		if coordField(f) && f.Kind == Float64 {
			s.Fields[i] = FieldCodec{ID: CodecQuantize, ErrBound: bound}
		}
	}
	return s
}

// ParseCodecSpec builds a spec from the CLI surface syntax: "none" (or
// "raw", ""), "lossless", "fast", or "lossy:<bound>" (e.g. "lossy:1e-3").
func ParseCodecSpec(schema *Schema, s string) (Spec, error) {
	switch s {
	case "", "none", "raw":
		return Spec{}, nil
	case "lossless":
		return LosslessSpec(schema), nil
	case "fast":
		return FastSpec(schema), nil
	}
	if rest, ok := strings.CutPrefix(s, "lossy:"); ok {
		bound, err := strconv.ParseFloat(rest, 64)
		if err != nil || !(bound > 0) || math.IsInf(bound, 0) {
			return Spec{}, fmt.Errorf("particle: bad lossy error bound %q", rest)
		}
		return LossySpec(schema, bound), nil
	}
	return Spec{}, fmt.Errorf("particle: unknown codec spec %q (want none, lossless, fast, or lossy:<bound>)", s)
}

// CompressBlock compresses one block of AoS records (a whole number of
// records in LOD order) under the spec, returning the self-describing
// per-field frame. Codecs that do not apply to the data at hand fall
// back per field — quantize on non-finite values or over-wide ranges,
// delta on non-integer values — and any compressed column that would
// exceed the raw column is stored raw, so a compressed block never
// costs more than the records plus a few framing bytes per field.
//
// The one allocation per call is the returned frame; everything else
// runs on pooled codec state. AppendCompressedBlock avoids even that
// when the caller owns a reusable destination.
func CompressBlock(schema *Schema, spec Spec, records []byte) ([]byte, error) {
	out := make([]byte, 0, FrameBound(schema, len(records)))
	return AppendCompressedBlock(out, schema, spec, records)
}

// AppendCompressedBlock appends the compressed frame for one block of
// AoS records onto dst and returns the extended slice. Semantics are
// those of CompressBlock.
func AppendCompressedBlock(dst []byte, schema *Schema, spec Spec, records []byte) ([]byte, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	stride := schema.Stride()
	if len(records)%stride != 0 {
		return nil, fmt.Errorf("particle: %d bytes is not a multiple of record size %d", len(records), stride)
	}
	st := codecStatePool.Get()
	defer codecStatePool.Put(st)
	return st.appendBlock(dst, schema, spec, records), nil
}

// appendBlock encodes every field frame of one block onto out.
func (st *codecState) appendBlock(out []byte, schema *Schema, spec Spec, records []byte) []byte {
	stride := schema.Stride()
	count := len(records) / stride
	var varbuf [binary.MaxVarintLen64]byte
	for fi := 0; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		off := schema.Offset(fi)
		colLen := count * f.Bytes()

		want := CodecRaw
		var bound float64
		if len(spec.Fields) > 0 {
			want = spec.Fields[fi].ID
			bound = spec.Fields[fi].ErrBound
		}
		id, payload := st.encodeField(f, want, bound, records, stride, off, count)
		if id != CodecRaw && len(payload) < colLen {
			out = append(out, byte(id))
			n := binary.PutUvarint(varbuf[:], uint64(len(payload)))
			out = append(out, varbuf[:n]...)
			out = append(out, payload...)
			continue
		}
		// Raw fallback: gather the column straight into the output frame,
		// with no intermediate column image.
		out = append(out, byte(CodecRaw))
		n := binary.PutUvarint(varbuf[:], uint64(colLen))
		out = append(out, varbuf[:n]...)
		var base int
		out, base = growFrame(out, colLen)
		gatherColumn(records, stride, off, f.Bytes(), out[base:])
	}
	return out
}

// encodeField applies the wanted codec to one field of the record image,
// degrading to shuffle+deflate when the codec's preconditions fail. The
// returned payload aliases st's scratch and is valid until st encodes
// again. A CodecRaw result carries a nil payload — the caller gathers
// raw columns itself.
func (st *codecState) encodeField(f Field, want CodecID, bound float64, records []byte, stride, off, count int) (CodecID, []byte) {
	switch want {
	case CodecDeltaVarint:
		if f.Kind == Float64 {
			p, ok := appendDeltaVarint(st.out[:0], records, stride, off, count, f.Components)
			st.out = p
			if ok {
				return CodecDeltaVarint, p
			}
		}
		return st.encodeShuffle(CodecShuffleDeflate, f, records, stride, off, count)
	case CodecQuantize:
		p, ok := appendQuantize(st.out[:0], records, stride, off, count, f.Components, bound)
		st.out = p
		if ok {
			return CodecQuantize, p
		}
		return st.encodeShuffle(CodecShuffleDeflate, f, records, stride, off, count)
	case CodecShuffleDeflate, CodecShuffleLZ:
		return st.encodeShuffle(want, f, records, stride, off, count)
	default:
		return CodecRaw, nil
	}
}

// encodeShuffle byte-plane-transposes one field straight out of the
// record image (fused gather+shuffle, see codec_state.go) and entropy-
// codes the planes with deflate (plane by plane, see deflate.go) or the
// fast LZ.
func (st *codecState) encodeShuffle(id CodecID, f Field, records []byte, stride, off, count int) (CodecID, []byte) {
	shuf := st.shuffled(count * f.Bytes())
	shuffleFromRecords(shuf, records, stride, off, f.Kind.Size(), f.Components, count)
	if id == CodecShuffleLZ {
		st.out = appendLZ(st.out[:0], shuf, st.tab)
		return CodecShuffleLZ, st.out
	}
	if st.def == nil {
		st.def = new(deflater)
	}
	st.out = st.def.deflatePlanes(st.out, shuf, f.Kind.Size())
	return CodecShuffleDeflate, st.out
}

// growFrame extends b by n bytes (contents unspecified) and returns the
// slice plus the start of the new region.
func growFrame(b []byte, n int) ([]byte, int) {
	base := len(b)
	if cap(b)-base < n {
		return append(b, make([]byte, n)...), base
	}
	return b[:base+n], base
}

// DecompressBlock reverses CompressBlock: data is one block frame, count
// the record count it holds; the result is exactly count*Stride() AoS
// bytes. data may arrive from disk or the network, so every length is
// bounds-checked against count before it sizes an allocation.
func DecompressBlock(schema *Schema, data []byte, count int) ([]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("particle: negative record count %d", count)
	}
	records := make([]byte, count*schema.Stride())
	if err := DecompressBlockInto(schema, data, count, records); err != nil {
		return nil, err
	}
	return records, nil
}

// DecompressBlockInto decodes one block frame of count records directly
// into dst, which must be exactly count*Stride() bytes — the zero-copy
// path for callers that own the destination (range reads decoding into
// the middle of a result slice, batch decodes into disjoint regions).
// It allocates nothing in steady state.
func DecompressBlockInto(schema *Schema, data []byte, count int, dst []byte) error {
	_, err := DecompressPickedInto(schema, data, count, dst, nil, 0, count, nil, nil)
	return err
}

// DecompressPickedInto is DecompressBlockInto for a reader that keeps
// only some fields of only some rows, and so need not decode the rest.
//
// Fields: want[fi] false leaves field fi's bytes of dst untouched
// (unspecified) and skips its inflate, which is most of a block's decode
// cost when a query projects onto the position. A nil want decodes every
// field. Skipped frames are still walked and checked — known codec id on
// a field kind it applies to, raw length equal to the column, payload
// inside the block, no trailing bytes — so a malformed frame is rejected
// by a projected read exactly as by a full one, with the same error;
// only corruption inside a skipped payload goes unseen.
//
// Rows: the reader keeps those whose position lies in the closed box.
// With a box, the position (field 0) is decoded first, wanted or not, the
// records [lo, hi) are selected on it — on a byte-plane codec's planes
// as they inflate (selectPlanes), on the decoded values otherwise
// (SelectClosed) — and every wanted field, the position included, is then
// decoded at the picked rows alone. The selection is returned, appended
// to picked — indices relative to lo. Of dst, only the wanted fields of
// the picked rows are then defined; everything else is unspecified. A
// byte-plane codec still inflates a wanted field's planes whole (a
// deflate stream has no random access) but assembles values only where a
// row was picked, and a block in which nothing was picked inflates
// nothing after the position — its frames are walked and checked all the
// same. A nil box decodes every record and returns picked as it came.
func DecompressPickedInto(schema *Schema, data []byte, count int, dst []byte, want []bool, lo, hi int, box *geom.Box, picked []int32) ([]int32, error) {
	if count < 0 {
		return picked, fmt.Errorf("particle: negative record count %d", count)
	}
	stride := schema.Stride()
	if len(dst) != count*stride {
		return picked, fmt.Errorf("particle: destination holds %d bytes, block decodes to %d", len(dst), count*stride)
	}
	if lo < 0 || hi > count || lo > hi {
		return picked, fmt.Errorf("particle: rows [%d,%d) out of a block of %d", lo, hi, count)
	}
	st := codecStatePool.Get()
	defer codecStatePool.Put(st)
	return st.decompressInto(schema, data, count, dst, want, lo, hi, box, picked)
}

// decompressInto walks the per-field frames, decoding each wanted field
// straight into its slots of the dst record image — with a box, at the
// rows it selects from [lo, hi) once the position has been looked at.
func (st *codecState) decompressInto(schema *Schema, data []byte, count int, dst []byte, want []bool, lo, hi int, box *geom.Box, picked []int32) ([]int32, error) {
	stride := schema.Stride()
	// Once the position has been selected on, picked[at:] names the
	// records the fields are decoded at (relative to lo); until then, and
	// without a box, a field is decoded at all of them.
	at, picking := len(picked), false
	for fi := 0; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		off := schema.Offset(fi)
		if len(data) < 1 {
			return picked, fmt.Errorf("particle: compressed block ends before field %q", f.Name)
		}
		id := CodecID(data[0])
		data = data[1:]
		plen, n := binary.Uvarint(data)
		if n <= 0 || plen > uint64(len(data)-n) {
			return picked, fmt.Errorf("particle: field %q: bad compressed payload length", f.Name)
		}
		payload := data[n : n+int(plen)]
		data = data[n+int(plen):]

		colLen := count * f.Bytes()
		switch {
		case id > codecMax:
			return picked, fmt.Errorf("particle: field %q: unknown codec %d", f.Name, id)
		case id == CodecRaw && len(payload) != colLen:
			return picked, fmt.Errorf("particle: field %q: raw column has %d bytes, want %d", f.Name, len(payload), colLen)
		case (id == CodecDeltaVarint || id == CodecQuantize) && f.Kind != Float64:
			return picked, fmt.Errorf("particle: field %q: %v codec on %v column", f.Name, id, f.Kind)
		}
		selecting := box != nil && fi == 0 // the position is what the box looks at
		wanted := want == nil || want[fi]
		if !selecting && (!wanted || picking && len(picked) == at) {
			continue
		}
		var err error
		switch id {
		case CodecRaw:
			w := f.Bytes()
			if selecting {
				picked, picking = SelectClosed(picked, payload[lo*w:hi*w], w, box), true
			}
			if !picking {
				scatterColumn(dst, stride, off, w, payload)
			} else if wanted {
				for _, i := range picked[at:] {
					r := lo + int(i)
					copy(dst[r*stride+off:r*stride+off+w], payload[r*w:])
				}
			}
		case CodecShuffleDeflate, CodecShuffleLZ:
			shuf := st.shuffled(colLen)
			if id == CodecShuffleLZ {
				err = decodeLZ(shuf, payload)
			} else {
				err = st.inf.inflate(shuf, payload)
			}
			if err != nil {
				break
			}
			if selecting {
				picked, picking = selectPlanes(picked, shuf, count, lo, hi, box), true
			}
			if !picking {
				unshuffleToRecords(dst, shuf, stride, off, f.Kind.Size(), f.Components, count)
			} else if wanted {
				unshuffleRows(dst, shuf, stride, off, f.Kind.Size(), f.Components, count, lo, picked[at:])
			}
		// The varint codecs are one sequential stream each: a value is
		// found only by decoding those before it, so they decode whole, and
		// a position so coded is selected on in the record image.
		case CodecDeltaVarint:
			err = decodeDeltaVarintInto(dst, stride, off, payload, count, f.Components)
		case CodecQuantize:
			err = decodeQuantizeInto(dst, stride, off, payload, count, f.Components)
		}
		if err != nil {
			return picked, fmt.Errorf("particle: field %q: %w", f.Name, err)
		}
		if selecting && !picking {
			picked, picking = SelectClosed(picked, dst[lo*stride:hi*stride], stride, box), true
		}
	}
	if len(data) != 0 {
		return picked, fmt.Errorf("particle: %d trailing bytes after compressed block", len(data))
	}
	return picked, nil
}

// gatherColumn extracts one field's bytes from an AoS record image into
// col (count*w bytes, record-major).
func gatherColumn(records []byte, stride, off, w int, col []byte) {
	count := len(col) / w
	for i := 0; i < count; i++ {
		copy(col[i*w:(i+1)*w], records[i*stride+off:i*stride+off+w])
	}
}

// scatterColumn writes one field's bytes back into an AoS record image.
func scatterColumn(records []byte, stride, off, w int, col []byte) {
	count := len(col) / w
	for i := 0; i < count; i++ {
		copy(records[i*stride+off:i*stride+off+w], col[i*w:(i+1)*w])
	}
}

// maxExactInt is the largest magnitude delta-coded values may take:
// beyond 2^53 float64 no longer represents every integer, so the
// int64 round-trip below would silently lose bits.
const maxExactInt = int64(1) << 53

// appendDeltaVarint encodes one float64 field of the record image as
// zigzag varints of consecutive integer differences, appended onto dst.
// ok is false when any value is not an exactly-representable integer
// (the caller falls back to a lossless byte codec and discards the
// partial output).
func appendDeltaVarint(dst, records []byte, stride, off, count, comps int) ([]byte, bool) {
	var varbuf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for i := 0; i < count; i++ {
		for k := 0; k < comps; k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(records[i*stride+off+k*8:]))
			iv := int64(v)
			if float64(iv) != v || iv > maxExactInt || iv < -maxExactInt {
				return dst, false
			}
			n := binary.PutVarint(varbuf[:], iv-prev)
			dst = append(dst, varbuf[:n]...)
			prev = iv
		}
	}
	return dst, true
}

// decodeDeltaVarintInto reverses appendDeltaVarint straight into the
// field's slots of a record image.
func decodeDeltaVarintInto(dst []byte, stride, off int, payload []byte, count, comps int) error {
	nelem := count * comps
	prev := int64(0)
	for e := 0; e < nelem; e++ {
		d, n := binary.Varint(payload)
		if n <= 0 {
			return fmt.Errorf("delta stream ends at element %d of %d", e, nelem)
		}
		payload = payload[n:]
		prev += d
		i, k := e/comps, e%comps
		binary.LittleEndian.PutUint64(dst[i*stride+off+k*8:], math.Float64bits(float64(prev)))
	}
	if len(payload) != 0 {
		return fmt.Errorf("%d trailing bytes in delta stream", len(payload))
	}
	return nil
}

// maxQuantLevels bounds the quantization index so the float round-trip
// q = round((v-min)/step); v' = min + q*step stays exact in the integer
// part; ranges needing more levels fall back to lossless.
const maxQuantLevels = float64(int64(1) << 51)

// appendQuantize encodes one float64 field of count records × comps
// components with per-component affine quantization: f64 min, f64 max,
// f64 step, then count uvarint indices per component (component-major),
// appended onto dst. The reconstruction min(min + q*step, max) is within
// bound of the original; the max clamp matters because rounding alone
// can overshoot the column's true range by step/2 — enough to push a
// boundary particle outside its partition (or the domain) and fail a
// deep fsck. ok is false when a value is non-finite or a component's
// range needs too many levels for the bound.
func appendQuantize(dst, records []byte, stride, off, count, comps int, bound float64) ([]byte, bool) {
	val := func(i, k int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(records[i*stride+off+k*8:]))
	}
	var varbuf [binary.MaxVarintLen64]byte
	for k := 0; k < comps; k++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := 0; i < count; i++ {
			v := val(i, k)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, false
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if count == 0 {
			mn, mx = 0, 0
		}
		step := bound
		if (mx-mn)/step > maxQuantLevels {
			return dst, false
		}
		var b8 [8]byte
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(mn))
		dst = append(dst, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(mx))
		dst = append(dst, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(step))
		dst = append(dst, b8[:]...)
		for i := 0; i < count; i++ {
			q := math.Round((val(i, k) - mn) / step)
			n := binary.PutUvarint(varbuf[:], uint64(q))
			dst = append(dst, varbuf[:n]...)
		}
	}
	return dst, true
}

// decodeQuantizeInto reverses appendQuantize straight into the field's
// slots of a record image.
func decodeQuantizeInto(dst []byte, stride, off int, payload []byte, count, comps int) error {
	for k := 0; k < comps; k++ {
		if len(payload) < 24 {
			return fmt.Errorf("quantize stream ends in component %d header", k)
		}
		mn := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		mx := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
		step := math.Float64frombits(binary.LittleEndian.Uint64(payload[16:]))
		payload = payload[24:]
		for i := 0; i < count; i++ {
			q, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("quantize stream ends at record %d of %d", i, count)
			}
			payload = payload[n:]
			v := mn + float64(q)*step
			// Rounding can overshoot the column range by step/2; clamping
			// back to it only moves the value toward the original, so the
			// error bound is preserved and boundary particles stay inside
			// their partition.
			if v > mx {
				v = mx
			}
			binary.LittleEndian.PutUint64(dst[i*stride+off+k*8:], math.Float64bits(v))
		}
	}
	if len(payload) != 0 {
		return fmt.Errorf("%d trailing bytes in quantize stream", len(payload))
	}
	return nil
}
