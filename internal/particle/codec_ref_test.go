package particle

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"spio/internal/geom"
)

// The single-stream shuffle+deflate encoder the plane-aligned one
// replaced, kept here as the reference: the frames every file written
// before the change holds, and the size the new frames are judged
// against.

// refDeflateColumn deflates a whole shuffled column as one flate stream.
func refDeflateColumn(t testing.TB, shuf []byte) []byte {
	t.Helper()
	return deflated(t, shuf, flate.BestSpeed, 0)
}

// shuffledColumn returns field fi of the records as byte planes.
func shuffledColumn(schema *Schema, records []byte, fi int) []byte {
	f := schema.Field(fi)
	count := len(records) / schema.Stride()
	shuf := make([]byte, count*f.Bytes())
	shuffleFromRecords(shuf, records, schema.Stride(), schema.Offset(fi), f.Kind.Size(), f.Components, count)
	return shuf
}

// refCompressBlock frames a block the way the parent commit did: which
// codec a field gets, fallbacks included, is encodeField's decision as
// ever; a shuffle+deflate payload is one flate stream over the column.
func refCompressBlock(t testing.TB, schema *Schema, spec Spec, records []byte) []byte {
	t.Helper()
	st := getCodecState()
	defer putCodecState(st)
	stride := schema.Stride()
	count := len(records) / stride
	var out []byte
	for fi := 0; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		colLen := count * f.Bytes()
		id, payload := st.encodeField(f, spec.Fields[fi].ID, spec.Fields[fi].ErrBound, records, stride, schema.Offset(fi), count)
		if id == CodecShuffleDeflate {
			payload = refDeflateColumn(t, shuffledColumn(schema, records, fi))
		}
		if id == CodecRaw || len(payload) >= colLen {
			id, payload = CodecRaw, make([]byte, colLen)
			gatherColumn(records, stride, schema.Offset(fi), f.Bytes(), payload)
		}
		out = append(out, byte(id))
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	return out
}

// fieldFrame is one field's frame of a block.
type fieldFrame struct {
	id      CodecID
	payload []byte
}

// splitFields cuts a well-formed block frame into its field frames.
func splitFields(t testing.TB, schema *Schema, frame []byte) []fieldFrame {
	t.Helper()
	var out []fieldFrame
	for fi := 0; fi < schema.NumFields(); fi++ {
		plen, n := binary.Uvarint(frame[1:])
		if n <= 0 || int(plen) > len(frame)-1-n {
			t.Fatalf("field %d: bad frame", fi)
		}
		out = append(out, fieldFrame{CodecID(frame[0]), frame[1+n : 1+n+int(plen)]})
		frame = frame[1+n+int(plen):]
	}
	if len(frame) != 0 {
		t.Fatalf("%d bytes after the last field frame", len(frame))
	}
	return out
}

// lodBlocks cuts a generated buffer the way a data file does: shuffled
// (the LOD order is a seeded permutation), then into blocks that double
// from the level-0 size up to the block cap, so the small levels every
// file starts with are judged beside the full blocks that carry the
// bytes.
func lodBlocks(b *Buffer, seed int64) [][]byte {
	b = b.Select(rand.New(rand.NewSource(seed)).Perm(b.Len()))
	records := b.Encode()
	stride := b.Schema().Stride()
	var blocks [][]byte
	for lo, n := 0, 32; lo < b.Len(); lo, n = lo+n, min(2*n, 8192) {
		blocks = append(blocks, records[lo*stride:min(lo+n, b.Len())*stride])
	}
	return blocks
}

// generatorBlocks are LOD-ordered blocks of the three workload
// generators on the Uintah schema.
func generatorBlocks() map[string][][]byte {
	schema := Uintah()
	return map[string][][]byte{
		"uniform":   lodBlocks(Uniform(schema, geom.UnitBox(), 30000, 1, 0), 2),
		"clustered": lodBlocks(Clustered(schema, geom.UnitBox(), 30000, 4, 1, 0), 3),
		"injection": lodBlocks(Injection(schema, geom.UnitBox(), geom.UnitBox(), 30000, 0.6, 1, 0), 4),
	}
}

// TestPlaneDeflateAgainstSingleStream is the ratio guard of the
// plane-aligned encoder. The stored/deflate decision is a constant of the
// encoder, so nothing tunes it per dataset; this holds it to the
// single-stream reference on every block of the three generators in LOD
// order. A block frame is never larger than the reference's plus the
// framing the cut costs — five bytes per stored block, five per flushed
// segment, five for the closing block of each payload — at any block
// size; in a full block, where the bytes are, that holds field by field
// (in a level of a few dozen records a four-plane field of near-constant
// bytes pays four block headers where one stream paid one, some tens of
// bytes that the frame recovers elsewhere); and a whole dataset is
// smaller. It also counts how much of a full block goes out as stored
// bytes, found in the payload as the exact stored-block framing of the
// plane: six of a float64's eight planes are mantissa noise, so a share
// under 0.6 means the encoder has fallen back to coding everything.
func TestPlaneDeflateAgainstSingleStream(t *testing.T) {
	schema := Uintah()
	spec := LosslessSpec(schema)
	for name, blocks := range generatorBlocks() {
		var newTotal, refTotal int
		for bi, records := range blocks {
			count := len(records) / schema.Stride()
			frame := mustCompress(t, schema, spec, records)
			ref := refCompressBlock(t, schema, spec, records)
			newTotal, refTotal = newTotal+len(frame), refTotal+len(ref)
			refFields := splitFields(t, schema, ref)
			var shuffled, stored, framing int
			for fi, ff := range splitFields(t, schema, frame) {
				if ff.id != CodecShuffleDeflate {
					continue
				}
				f := schema.Field(fi)
				planes, n := f.Kind.Size(), count*f.Components
				shuf := shuffledColumn(schema, records, fi)
				shuffled += len(shuf)
				fieldFraming := 5
				for p := 0; p < planes; p++ {
					// The plane as stored blocks: header, length, complement, bytes.
					var framed []byte
					for rest := shuf[p*n : (p+1)*n]; len(rest) > 0; {
						k := min(len(rest), maxStored)
						framed = append(append(framed, 0, byte(k), byte(k>>8), ^byte(k), ^byte(k>>8)), rest[:k]...)
						rest = rest[k:]
					}
					if bytes.Contains(ff.payload, framed) {
						stored += n
						fieldFraming += len(framed) - n
					} else {
						fieldFraming += 5
					}
				}
				framing += fieldFraming
				if count == 8192 && len(ff.payload) > len(refFields[fi].payload)+fieldFraming {
					t.Errorf("%s block %d field %q: %d bytes, single stream %d + framing %d",
						name, bi, f.Name, len(ff.payload), len(refFields[fi].payload), fieldFraming)
				}
			}
			if len(frame) > len(ref)+framing {
				t.Errorf("%s block %d (%d records): frame of %d bytes, single-stream frame %d + framing %d",
					name, bi, count, len(frame), len(ref), framing)
			}
			if count == 8192 {
				if share := float64(stored) / float64(shuffled); share < 0.6 {
					t.Errorf("%s block %d: %.2f of the shuffled bytes went out stored, want >= 0.6", name, bi, share)
				}
			}
		}
		if newTotal >= refTotal {
			t.Errorf("%s: plane-aligned frames take %d bytes, single-stream frames %d", name, newTotal, refTotal)
		}
		t.Logf("%s: %d blocks, single stream %d bytes, plane-aligned %d (%.4f)", name, len(blocks), refTotal, newTotal, float64(newTotal)/float64(refTotal))
	}
}

// TestPlaneDeflateGivesUpRepeatsInUniformPlanes records the one loss of
// the histogram test: a plane whose bytes are uniformly distributed but
// repeat at a distance — here a ramp — is stored, where the single
// stream's matcher would have shrunk it to nearly nothing. DESIGN.md
// §12.2 says why that is given up: on disk a plane holds the bytes of
// records in LOD order, a seeded shuffle, and no period survives one.
func TestPlaneDeflateGivesUpRepeatsInUniformPlanes(t *testing.T) {
	plane := make([]byte, 3*8192)
	for i := range plane {
		plane[i] = byte(i)
	}
	st := getCodecState()
	defer putCodecState(st)
	st.deflatePlanes(plane, 1)
	if want := len(plane) + 5 + 5; len(st.out.b) != want { // one stored block and the closing one
		t.Errorf("ramp plane: %d bytes, want it stored in %d", len(st.out.b), want)
	}
	if ref := refDeflateColumn(t, plane); len(ref) > len(plane)/8 {
		t.Errorf("the single stream takes %d bytes for a %d-byte ramp: it is not the loss it is recorded as", len(ref), len(plane))
	}
	back, err := io.ReadAll(flate.NewReader(bytes.NewReader(st.out.b)))
	if err != nil || !bytes.Equal(back, plane) {
		t.Errorf("stored ramp does not inflate back: %v", err)
	}
}

// TestDeflatePayloadIsOneStdlibStream holds the compatibility claim of
// the plane-aligned payload from outside: a bare compress/flate reader —
// no spio code between it and the bytes — inflates every shuffle+deflate
// payload the encoder writes to exactly the shuffled column and stops at
// the payload's last byte. That is why files written now read under
// binaries built before the change. Blocks of every generator and every
// LOD level size, float64 and float32 fields, stored and coded planes,
// an empty block and planes past one stored block's 65535 bytes.
func TestDeflatePayloadIsOneStdlibStream(t *testing.T) {
	schema := Uintah()
	spec := LosslessSpec(schema)
	all := generatorBlocks()
	_, structured := testBlock(t, 4096, 21)
	_, noisy := noisyBlock(t, 8192) // stress planes of 73728 bytes: two stored blocks each
	all["structured"] = [][]byte{structured, noisy, nil}
	payloads := 0
	for name, blocks := range all {
		for bi, records := range blocks {
			frame, err := CompressBlock(schema, spec, records)
			if err != nil {
				t.Fatal(err)
			}
			for fi, ff := range splitFields(t, schema, frame) {
				if ff.id != CodecShuffleDeflate {
					continue
				}
				payloads++
				src := bytes.NewReader(ff.payload)
				got, err := io.ReadAll(flate.NewReader(src))
				if err != nil {
					t.Fatalf("%s block %d field %d: stdlib inflate: %v", name, bi, fi, err)
				}
				if !bytes.Equal(got, shuffledColumn(schema, records, fi)) {
					t.Fatalf("%s block %d field %d: stdlib inflate gives %d bytes that are not the shuffled column", name, bi, fi, len(got))
				}
				if src.Len() != 0 {
					t.Fatalf("%s block %d field %d: %d payload bytes after the end of the stream", name, bi, fi, src.Len())
				}
			}
		}
	}
	if payloads < 100 {
		t.Fatalf("only %d deflate payloads were looked at", payloads)
	}
}

// TestSingleStreamFramesStillDecode is the other direction: frames as
// the reference encoder wrote them — every file on disk before the
// change — decode through today's reader to the same records, whole,
// with fields skipped, and with rows picked.
func TestSingleStreamFramesStillDecode(t *testing.T) {
	schema := Uintah()
	posDensity := make([]bool, schema.NumFields())
	posDensity[0], posDensity[2] = true, true
	q := geom.NewBox(geom.V3(0.2, 0.1, 0.3), geom.V3(0.7, 0.8, 0.9))
	pick := func(sel []int32, recs []byte) []int32 { return selectClosed(sel, recs, schema.Stride(), q) }
	for _, spec := range []Spec{LosslessSpec(schema), LossySpec(schema, 1e-3)} {
		for name, blocks := range generatorBlocks() {
			// A raw-fallback level, a small coded one, a full block, the tail.
			for _, bi := range []int{0, 4, len(blocks) - 2, len(blocks) - 1} {
				records := blocks[bi]
				count := len(records) / schema.Stride()
				ref := refCompressBlock(t, schema, spec, records)
				want, err := DecompressBlock(schema, mustCompress(t, schema, spec, records), count)
				if err != nil {
					t.Fatal(err)
				}
				if !spec.Lossy() && !bytes.Equal(want, records) {
					t.Fatalf("%s block %d: lossless round trip changed the records", name, bi)
				}
				got, err := DecompressBlock(schema, ref, count)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s block %d: reference frame, full decode: %v", name, bi, err)
				}
				checkPartialDecodes(t, schema, ref, count, want, posDensity, pick)
			}
		}
	}
}

func mustCompress(t testing.TB, schema *Schema, spec Spec, records []byte) []byte {
	t.Helper()
	frame, err := CompressBlock(schema, spec, records)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// checkPartialDecodes decodes frame with fields skipped and with rows
// picked — over the whole block and over a clipped row range — into
// poisoned images and compares what each defines with full, the whole
// decode: the wanted fields of the picked rows and every position.
func checkPartialDecodes(t testing.TB, schema *Schema, frame []byte, count int, full []byte, want []bool, pick Selector) {
	t.Helper()
	stride := schema.Stride()
	for _, clip := range [][2]int{{0, count}, {count / 3, count - count/4}} {
		for _, w := range [][]bool{nil, want} {
			for _, p := range []Selector{nil, pick} {
				got := bytes.Repeat([]byte{0xA5}, len(full))
				picked, err := DecompressPickedInto(schema, frame, count, got, w, clip[0], clip[1], p, nil)
				if err != nil {
					t.Fatalf("rows %v fields %v pick %v: %v", clip, w != nil, p != nil, err)
				}
				rows := make([]bool, count) // rows whose wanted fields are defined
				for i := range rows {
					rows[i] = p == nil
				}
				if p != nil {
					ref := p(nil, full[clip[0]*stride:clip[1]*stride])
					if len(ref) != len(picked) {
						t.Fatalf("rows %v: picked %d rows, the whole decode picks %d", clip, len(picked), len(ref))
					}
					for j, i := range picked {
						if i != ref[j] {
							t.Fatalf("rows %v: pick %d is row %d, want %d", clip, j, i, ref[j])
						}
						rows[clip[0]+int(i)] = true
					}
				}
				for i := 0; i < count; i++ {
					for fi := 0; fi < schema.NumFields(); fi++ {
						lo := i*stride + schema.Offset(fi)
						hi := lo + schema.Field(fi).Bytes()
						defined := rows[i] && (w == nil || w[fi]) || fi == 0 && (p != nil || w == nil || w[0])
						if defined && !bytes.Equal(got[lo:hi], full[lo:hi]) {
							t.Fatalf("rows %v fields %v pick %v: record %d field %d differs from the whole decode", clip, w != nil, p != nil, i, fi)
						}
					}
				}
			}
		}
	}
}

// TestDeflateBytesIgnoreWriterHistory: the pooled flate writer is Reset
// for every plane segment, so a payload depends on its column alone —
// not on what the state compressed before, nor on whether it compressed
// anything. (Across worker counts the same property is
// TestBatchCompressMatchesSerial's, and through a whole collective write
// core's TestLosslessWriteIgnoresCodecWorkers'.)
func TestDeflateBytesIgnoreWriterHistory(t *testing.T) {
	schema := Uintah()
	spec := LosslessSpec(schema)
	blocks := generatorBlocks()["clustered"]
	records := blocks[len(blocks)-2]
	_, other := noisyBlock(t, 3000)

	fresh := &codecState{tab: new(lzTable)}
	want := fresh.appendBlock(nil, schema, spec, records)
	used := &codecState{tab: new(lzTable)}
	used.appendBlock(nil, schema, spec, other)
	used.appendBlock(nil, schema, FastSpec(schema), records)
	for i := 0; i < 2; i++ {
		if got := used.appendBlock(nil, schema, spec, records); !bytes.Equal(got, want) {
			t.Fatalf("encode %d on a used codec state differs from a fresh state's", i)
		}
	}
}
