package particle

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spio/internal/geom"
)

// The two shuffle+deflate encoders deflate.go replaced, kept here as the
// references: the frames every file written before holds, and the sizes
// the new frames are judged against. Both ran compress/flate's writer —
// over the whole column (up to PR 17), then plane by plane (PRs 18–26).

// refDeflateColumn deflates a whole shuffled column as one flate stream.
func refDeflateColumn(t testing.TB, shuf []byte) []byte {
	t.Helper()
	return deflated(t, shuf, flate.BestSpeed, 0)
}

// refDeflatePlanes is the parent commit's plane encoder: per plane either
// hand-framed stored blocks (a plane refStoredPlane judges noise on its
// full histogram) or that plane's own flate segment — a fresh writer, then
// Flush, which ends the segment on a byte boundary with a sync marker —
// and one final empty stored block.
func refDeflatePlanes(t testing.TB, shuf []byte, planes int) []byte {
	t.Helper()
	var out bytes.Buffer
	n := len(shuf) / planes
	for p := 0; p < planes && n > 0; p++ {
		plane := shuf[p*n : (p+1)*n]
		if refStoredPlane(plane) {
			for len(plane) > 0 {
				k := min(len(plane), maxStored)
				out.Write([]byte{0, byte(k), byte(k >> 8), ^byte(k), ^byte(k >> 8)})
				out.Write(plane[:k])
				plane = plane[k:]
			}
			continue
		}
		zw, err := flate.NewWriter(&out, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = zw.Write(plane)
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	out.Write([]byte{1, 0, 0, 0xff, 0xff})
	return out.Bytes()
}

// refStoredPlane is the parent's noise rule: 128 * sum c(b)^2 < n^2 over
// every byte of the plane.
func refStoredPlane(plane []byte) bool {
	var h [256]uint64
	for _, b := range plane {
		h[b]++
	}
	var sq uint64
	for _, c := range h {
		sq += c * c
	}
	n := uint64(len(plane))
	return sq < n*n>>7
}

// shuffledColumn returns field fi of the records as byte planes.
func shuffledColumn(schema *Schema, records []byte, fi int) []byte {
	f := schema.Field(fi)
	count := len(records) / schema.Stride()
	shuf := make([]byte, count*f.Bytes())
	shuffleFromRecords(shuf, records, schema.Stride(), schema.Offset(fi), f.Kind.Size(), f.Components, count)
	return shuf
}

// refCompressBlock frames a block the way files up to PR 17 hold it: which
// codec a field gets, fallbacks included, is encodeField's decision as
// ever; a shuffle+deflate payload is one flate stream over the column.
func refCompressBlock(t testing.TB, schema *Schema, spec Spec, records []byte) []byte {
	t.Helper()
	return refCompressBlockWith(t, schema, spec, records, func(shuf []byte, _ int) []byte { return refDeflateColumn(t, shuf) })
}

// refPlanesBlock frames a block the way the parent commit did (files of
// PRs 18–26): shuffle+deflate payloads by refDeflatePlanes.
func refPlanesBlock(t testing.TB, schema *Schema, spec Spec, records []byte) []byte {
	t.Helper()
	return refCompressBlockWith(t, schema, spec, records, func(shuf []byte, planes int) []byte { return refDeflatePlanes(t, shuf, planes) })
}

func refCompressBlockWith(t testing.TB, schema *Schema, spec Spec, records []byte, deflate func(shuf []byte, planes int) []byte) []byte {
	t.Helper()
	st := codecStatePool.Get()
	defer codecStatePool.Put(st)
	stride := schema.Stride()
	count := len(records) / stride
	var out []byte
	for fi := 0; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		colLen := count * f.Bytes()
		id, payload := st.encodeField(f, spec.Fields[fi].ID, spec.Fields[fi].ErrBound, records, stride, schema.Offset(fi), count)
		if id == CodecShuffleDeflate {
			payload = deflate(shuffledColumn(schema, records, fi), f.Kind.Size())
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

// TestPlaneDeflateAgainstSingleStream is the ratio guard of cutting the
// stream at the planes. The stored/coded decision is the encoder's own, so
// nothing tunes it per dataset; this holds it to the single-stream
// reference on every block of the three generators in LOD order. A block
// frame is never larger than the reference's plus the framing the cut
// costs — five bytes per stored block, five per coded plane for the header
// of its own, five for the closing block of each payload — at any block
// size; in a full block, where the bytes are, that holds field by field
// (in a level of a few dozen records a four-plane field of near-constant
// bytes pays four block headers where one stream paid one, some tens of
// bytes that the frame recovers elsewhere); and a whole dataset is
// smaller. It also counts how much of a full block goes out as stored
// bytes, found in the payload as the stored-block framing of the plane
// from its length on (the header's byte holds the end of the block
// before): six of a float64's eight planes are mantissa noise, so a share
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
					if bytes.Contains(ff.payload, framed[1:]) {
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

// TestDeflateNoLargerThanStdlibPlanes holds the in-house encoder to the
// one it replaced, compress/flate's writer run plane by plane
// (refDeflatePlanes): on every full block of the generators and of the
// structured and noisy test blocks its frame is no larger, and over each
// dataset's blocks of every size the frames together are smaller.
func TestDeflateNoLargerThanStdlibPlanes(t *testing.T) {
	schema := Uintah()
	spec := LosslessSpec(schema)
	all := generatorBlocks()
	_, structured := testBlock(t, 8192, 21)
	_, noisy := noisyBlock(t, 8192)
	all["structured"], all["noisy"] = [][]byte{structured, structured[:4096*schema.Stride()]}, [][]byte{noisy}
	for name, blocks := range all {
		var newTotal, refTotal int
		for bi, records := range blocks {
			frame := mustCompress(t, schema, spec, records)
			ref := refPlanesBlock(t, schema, spec, records)
			newTotal, refTotal = newTotal+len(frame), refTotal+len(ref)
			if len(records)/schema.Stride() == 8192 && len(frame) > len(ref) {
				t.Errorf("%s block %d: frame of %d bytes, the stdlib plane encoder's %d", name, bi, len(frame), len(ref))
			}
		}
		if newTotal >= refTotal && name != "noisy" || newTotal > refTotal {
			t.Errorf("%s: frames take %d bytes, the stdlib plane encoder's %d", name, newTotal, refTotal)
		}
		t.Logf("%s: %d blocks, stdlib planes %d bytes, in-house %d (%.4f)", name, len(blocks), refTotal, newTotal, float64(newTotal)/float64(refTotal))
	}
}

// TestPlaneDeflateGivesUpRepeatsInUniformPlanes records what the noise
// rule gives up, now that it runs on a sample and only decides whether
// coding is tried. The ramp the parent stored — every byte value equally
// often, so its full histogram was noise — is coded to nearly nothing: a
// word of every 64 bytes holds 32 of the 256 values, the sample is not
// uniform, and the matcher finds the period. What is still given up is
// bytes uniform in the sample that repeat at a distance (a ramp of period
// 251 shows the sample every value), and, new with the sample, structure
// the sample does not see (noise in the sampled words, zeros between
// them): both are stored without the matcher being asked, where the
// reference encoders shrink them. DESIGN.md §12.2 says why that is given
// up: on disk a plane holds the bytes of records in LOD order, a seeded
// shuffle, and neither a period nor a place in the plane survives one.
func TestPlaneDeflateGivesUpRepeatsInUniformPlanes(t *testing.T) {
	const n = 3 * 8192
	ramp, ramp251, hidden := make([]byte, n), make([]byte, n), make([]byte, n)
	r := rand.New(rand.NewSource(5))
	for i := range ramp {
		ramp[i], ramp251[i] = byte(i), byte(i%251)
		if i%64 < 8 {
			hidden[i] = byte(r.Intn(256))
		}
	}
	stored := n + 5 + 5 // one stored block and the closing one
	for _, c := range []struct {
		name   string
		plane  []byte
		stored bool
		ref    []byte
	}{
		{"ramp of period 256", ramp, false, refDeflatePlanes(t, ramp, 1)},
		{"ramp of period 251", ramp251, true, refDeflateColumn(t, ramp251)},
		{"noise where the sample looks", hidden, true, refDeflatePlanes(t, hidden, 1)},
	} {
		out := new(deflater).deflatePlanes(nil, c.plane, 1)
		switch {
		case c.stored && len(out) != stored:
			t.Errorf("%s: %d bytes, want it stored in %d", c.name, len(out), stored)
		case c.stored && len(c.ref) > n/4:
			t.Errorf("%s: the reference takes %d of %d bytes: it is not the loss it is recorded as", c.name, len(c.ref), n)
		case !c.stored && (len(out) > n/8 || len(c.ref) != stored):
			t.Errorf("%s: %d bytes, the parent's encoder %d: want it coded now and stored then", c.name, len(out), len(c.ref))
		}
		back, err := io.ReadAll(flate.NewReader(bytes.NewReader(out)))
		if err != nil || !bytes.Equal(back, c.plane) {
			t.Errorf("%s does not inflate back: %v", c.name, err)
		}
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
// the single-stream encoder wrote them — every file on disk before the
// plane cut — decode through today's reader to the same records, whole,
// with fields skipped, and with rows picked.
func TestSingleStreamFramesStillDecode(t *testing.T) {
	checkRefFramesDecode(t, refCompressBlock)
}

// TestStdlibPlaneFramesStillDecode is the same for frames as the parent
// commit's encoder wrote them: every file written by PRs 18–26.
func TestStdlibPlaneFramesStillDecode(t *testing.T) {
	checkRefFramesDecode(t, refPlanesBlock)
}

func checkRefFramesDecode(t *testing.T, refFrame func(testing.TB, *Schema, Spec, []byte) []byte) {
	schema := Uintah()
	posDensity := make([]bool, schema.NumFields())
	posDensity[0], posDensity[2] = true, true
	q := geom.NewBox(geom.V3(0.2, 0.1, 0.3), geom.V3(0.7, 0.8, 0.9))
	for _, spec := range []Spec{LosslessSpec(schema), LossySpec(schema, 1e-3)} {
		for name, blocks := range generatorBlocks() {
			// A raw-fallback level, a small coded one, a full block, the tail.
			for _, bi := range []int{0, 4, len(blocks) - 2, len(blocks) - 1} {
				records := blocks[bi]
				count := len(records) / schema.Stride()
				ref := refFrame(t, schema, spec, records)
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
				checkPartialDecodes(t, schema, ref, count, want, posDensity, q)
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
// picked by box — over the whole block and over a clipped row range —
// into poisoned images and compares what each defines with full, the
// whole decode: the wanted fields, the position among them, of the
// picked rows.
func checkPartialDecodes(t testing.TB, schema *Schema, frame []byte, count int, full []byte, want []bool, box geom.Box) {
	t.Helper()
	stride := schema.Stride()
	for _, clip := range [][2]int{{0, count}, {count / 3, count - count/4}} {
		for _, w := range [][]bool{nil, want} {
			for _, b := range []*geom.Box{nil, &box} {
				got := bytes.Repeat([]byte{0xA5}, len(full))
				picked, err := DecompressPickedInto(schema, frame, count, got, w, clip[0], clip[1], b, nil)
				if err != nil {
					t.Fatalf("rows %v fields %v box %v: %v", clip, w != nil, b != nil, err)
				}
				rows := make([]bool, count) // rows whose wanted fields are defined
				for i := range rows {
					rows[i] = b == nil
				}
				if b != nil {
					if ref := refSelect(full, stride, clip[0], clip[1], box); !slices.Equal(picked, ref) {
						t.Fatalf("rows %v: picked %v, the whole decode's positions give %v", clip, picked, ref)
					}
					for _, i := range picked {
						rows[clip[0]+int(i)] = true
					}
				}
				for i := 0; i < count; i++ {
					for fi := 0; fi < schema.NumFields(); fi++ {
						lo := i*stride + schema.Offset(fi)
						hi := lo + schema.Field(fi).Bytes()
						if rows[i] && (w == nil || w[fi]) && !bytes.Equal(got[lo:hi], full[lo:hi]) {
							t.Fatalf("rows %v fields %v box %v: record %d field %d differs from the whole decode", clip, w != nil, b != nil, i, fi)
						}
					}
				}
			}
		}
	}
}

// TestDeflateBytesDependOnThePlaneAlone: the deflater's hash table is
// never cleared, only moved past by an epoch, so a payload must depend on
// its column alone — not on what the state compressed before, nor on
// whether it compressed anything, nor on the epoch having just wrapped —
// and a frame must not depend on who compresses it: CompressBlock,
// CompressBlocks on 1, 2 or 8 workers, or CompressRowsInto taking the
// blocks from rows as they lie or permuted, into a nil, a full or a half
// arena.
func TestDeflateBytesDependOnThePlaneAlone(t *testing.T) {
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
	for i := 0; i < 3; i++ {
		if got := used.appendBlock(nil, schema, spec, records); !bytes.Equal(got, want) {
			t.Fatalf("encode %d on a used codec state differs from a fresh state's", i)
		}
		used.def.epoch = math.MaxUint32 - blockMax/2 // the next piece but one wraps it
	}

	wants := make([][]byte, len(blocks))
	for bi, b := range blocks {
		wants[bi] = mustCompress(t, schema, spec, b)
	}
	for _, workers := range []int{1, 2, 8} {
		frames, err := CompressBlocks(schema, spec, blocks, workers)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range blocks {
			if !bytes.Equal(frames[bi], wants[bi]) {
				t.Fatalf("%d workers: frame %d differs from CompressBlock's", workers, bi)
			}
		}
	}
	rows, lens := blockRows(schema, blocks)
	defer rows.Release()
	var bound int
	for _, b := range blocks {
		bound += FrameBound(schema, len(b))
	}
	for _, order := range [][]int{nil, rand.New(rand.NewSource(5)).Perm(rows.Len())} {
		for bi, b := range gatheredBlocks(schema, blocks, order) {
			wants[bi] = mustCompress(t, schema, spec, b)
		}
		for _, arena := range [][]byte{nil, make([]byte, bound), make([]byte, bound/2)} {
			frames, err := CompressRowsInto(arena, spec, rows, order, lens)
			if err != nil {
				t.Fatal(err)
			}
			for bi := range blocks {
				if !bytes.Equal(frames[bi], wants[bi]) {
					t.Fatalf("order %v, arena of %d bytes: frame %d differs from CompressBlock's", order != nil, len(arena), bi)
				}
			}
		}
	}
}

// blockRows lays the blocks' records end to end as rows, what
// CompressRowsInto takes, and returns them with each block's length in
// records.
func blockRows(schema *Schema, blocks [][]byte) (*Rows, []int64) {
	rows := NewRows(schema)
	lens := make([]int64, len(blocks))
	for bi, b := range blocks {
		rows.AppendRecords(b)
		lens[bi] = int64(len(b) / schema.Stride())
	}
	return rows, lens
}

// gatheredBlocks is what CompressRowsInto compresses of blockRows' rows:
// their records taken in order (nil: as they lie), cut into blocks of the
// same lengths.
func gatheredBlocks(schema *Schema, blocks [][]byte, order []int) [][]byte {
	all := bytes.Join(blocks, nil)
	stride := schema.Stride()
	if order != nil {
		permuted := make([]byte, 0, len(all))
		for _, row := range order {
			permuted = append(permuted, all[row*stride:(row+1)*stride]...)
		}
		all = permuted
	}
	out := make([][]byte, len(blocks))
	for bi, b := range blocks {
		out[bi], all = all[:len(b)], all[len(b):]
	}
	return out
}
