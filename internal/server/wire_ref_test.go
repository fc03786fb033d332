package server

import (
	"bytes"
	"fmt"
	"testing"

	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// The columnar wire codec this package had before answers travelled as
// rows, kept as the reference the rows codec is pinned to: the frames on
// the socket are the contract, however they are produced.
// refEncodeBuffer transposes a Buffer to a staged AoS image, compresses
// that into a scratch and copies the result into the frame;
// refDecodeBuffer copies the payload out of the frame, inflates it into
// a second image and transposes that into columns.

func refEncodeBuffer(e *writer, buf *particle.Buffer, codec uint8) {
	encodeWireSchema(e, buf.Schema())
	e.u64(uint64(buf.Len()))
	data := make([]byte, buf.Len()*buf.Schema().Stride())
	buf.EncodeRecordsInto(data, 0, buf.Len())
	payload, actual := data, uint8(wireCodecRaw)
	if codec == wireCodecLossless {
		if comp, ok := compressWirePayload(buf.Schema(), data, nil); ok {
			payload, actual = comp, wireCodecLossless
		}
	}
	e.u8(actual)
	e.uvarint(uint64(len(payload)))
	e.bytes(payload)
}

// compressWirePayload compresses an AoS image into the concatenated
// block frames of a lossless wire payload appended onto dst. ok is false
// when compression does not shrink the image.
func compressWirePayload(schema *particle.Schema, data []byte, dst []byte) ([]byte, bool) {
	stride := schema.Stride()
	count := len(data) / stride
	spec := particle.NarrowSpec(schema, particle.FastSpec(schema), data)
	out := dst
	for lo := 0; lo < count; lo += wireBlockRecords {
		hi := min(lo+wireBlockRecords, count)
		var err error
		if out, err = particle.AppendCompressedBlock(out, schema, spec, data[lo*stride:hi*stride]); err != nil {
			return nil, false
		}
	}
	if len(out)-len(dst) >= len(data) {
		return nil, false
	}
	return out, true
}

// decompressWirePayload reverses compressWirePayload into dst (the raw
// AoS image of count records).
func decompressWirePayload(schema *particle.Schema, stream []byte, count int, dst []byte) error {
	counts := make([]int, 0, count/wireBlockRecords+1)
	for lo := 0; lo < count; lo += wireBlockRecords {
		counts = append(counts, min(wireBlockRecords, count-lo))
	}
	blocks, err := particle.SplitFrames(schema, stream, counts)
	if err != nil {
		return err
	}
	return particle.DecompressBlocks(schema, blocks, dst, 0)
}

func refDecodeBuffer(d *reader, limit int64) (*particle.Buffer, error) {
	schema, err := decodeWireSchema(d)
	if err != nil {
		return nil, err
	}
	n := d.u64()
	if n > uint64(limit) {
		d.fail(fmt.Errorf("spiod: buffer of %d records exceeds limit %d bytes", n, limit))
	}
	size := n * uint64(schema.Stride())
	if d.err == nil && size > uint64(limit) {
		d.fail(fmt.Errorf("spiod: buffer payload of %d bytes exceeds limit %d", size, limit))
	}
	codec := d.u8()
	plen := d.uvarint()
	if d.err == nil && codec > maxWireCodec {
		d.fail(fmt.Errorf("spiod: unknown buffer codec %d", codec))
	}
	if d.err == nil && codec == wireCodecRaw && plen != size {
		d.fail(fmt.Errorf("spiod: raw buffer payload of %d bytes, want %d", plen, size))
	}
	nblocks := (n + wireBlockRecords - 1) / wireBlockRecords
	if d.err == nil && plen > size+nblocks*uint64(schema.NumFields())*16 {
		d.fail(fmt.Errorf("spiod: compressed payload of %d bytes exceeds raw size %d", plen, size))
	}
	if d.err != nil {
		return nil, d.err
	}
	data := make([]byte, plen)
	d.bytes(data)
	if d.err != nil {
		return nil, d.err
	}
	if codec == wireCodecLossless {
		raw := make([]byte, size)
		if err := decompressWirePayload(schema, data, int(n), raw); err != nil {
			return nil, fmt.Errorf("spiod: %w", err)
		}
		data = raw
	}
	return particle.Decode(schema, data)
}

// encodeBuffer and decodeBuffer let the wire tests written against the
// columnar codec run unchanged against the rows codec.

func encodeBuffer(e *writer, buf *particle.Buffer, codec uint8) {
	rows := buf.Rows()
	defer rows.Release()
	encodeRows(e, rows, codec)
}

func decodeBuffer(d *reader, limit int64) (*particle.Buffer, error) {
	rows, err := decodeRows(d, limit)
	if err != nil {
		return nil, err
	}
	return rows.Buffer(), nil
}

// vecBody encodes a response the way Front.send does — into a vecFrame,
// written with one vectored write — and returns the body that reached
// the writer, having checked the length prefix in front of it.
func vecBody(t *testing.T, enc func(e *writer)) []byte {
	t.Helper()
	fr := newVecFrame()
	defer fr.release()
	e := newWriter(fr)
	enc(e)
	if e.err != nil {
		t.Fatalf("encode: %v", e.err)
	}
	var out bytes.Buffer
	if err := fr.writeTo(&out); err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(bytes.NewReader(out.Bytes()), 1<<30)
	if err != nil || len(body)+4 != out.Len() || len(body) != fr.size() {
		t.Fatalf("vectored frame: %d bytes written, body %d, size %d: %v", out.Len(), len(body), fr.size(), err)
	}
	return body
}

// TestWireFramesMatchReference is the differential test of the rows
// codec: over {raw, lossless} x {0, 1, either side of a wire block, three
// blocks and a ragged tail} records x {whole Uintah records, positions
// only} x {query, KNN, halo responses}, the frame the rows
// encoder lends together is byte-identical to the frame the columnar
// reference builds, each decoder accepts the other's frame, and every
// decoded answer is bit-equal to what went in — with no row segment left
// held at the end.
func TestWireFramesMatchReference(t *testing.T) {
	held := particle.RowSegmentsHeld()
	stats := wireStats{Read: rdr.Stats{FilesOpened: 2, ParticlesRead: 99, ParticlesKept: 7}, QueueWait: 5, Service: 11}
	proj, err := particle.Uintah().Project([]string{particle.PositionField})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, wireBlockRecords - 1, wireBlockRecords, wireBlockRecords + 1, 3*wireBlockRecords + 17} {
		full := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, int64(n)+3, 0)
		pos, err := proj.Apply(full)
		if err != nil {
			t.Fatal(err)
		}
		for _, buf := range []*particle.Buffer{full, pos} {
			// A second, different buffer for the ghost half of a halo answer.
			other := buf.Slice(0, n/3)
			dists := make([]float64, n%50)
			for i := range dists {
				dists[i] = float64(i) / 7
			}
			for _, codec := range []uint8{wireCodecRaw, wireCodecLossless} {
				// One response kind: how the reference and the rows codec encode
				// it, and how each decodes it back to buffers.
				type kind struct {
					name           string
					ref, rows      func(e *writer)
					refDec, rowDec func(d *reader) ([]*particle.Buffer, error)
				}
				decRef := func(k int) func(d *reader) ([]*particle.Buffer, error) {
					return func(d *reader) ([]*particle.Buffer, error) {
						var out []*particle.Buffer
						for i := 0; i < k; i++ {
							b, err := refDecodeBuffer(d, 1<<30)
							if err != nil {
								return nil, err
							}
							out = append(out, b)
						}
						return out, nil
					}
				}
				skipStats := func(dec func(d *reader) ([]*particle.Buffer, error)) func(d *reader) ([]*particle.Buffer, error) {
					return func(d *reader) ([]*particle.Buffer, error) {
						if st, err := decodeStats(d); err != nil || *st != stats {
							return nil, fmt.Errorf("stats %+v: %v", st, err)
						}
						return dec(d)
					}
				}
				rowsOf, rowsOfOther := buf.Rows(), other.Rows()
				kinds := []kind{
					{
						name:   "query",
						ref:    func(e *writer) { encodeStats(e, &stats); refEncodeBuffer(e, buf, codec) },
						rows:   func(e *writer) { encodeQueryResp(e, &queryResp{Stats: stats, Rows: rowsOf}, codec) },
						refDec: skipStats(decRef(1)),
						rowDec: func(d *reader) ([]*particle.Buffer, error) {
							r, err := decodeQueryResp(d, 1<<30)
							if err != nil {
								return nil, err
							}
							return []*particle.Buffer{r.Rows.Buffer()}, nil
						},
					},
					{
						name: "knn",
						ref: func(e *writer) {
							encodeStats(e, &stats)
							refEncodeBuffer(e, buf, codec)
							encodeFloats(e, dists)
						},
						rows: func(e *writer) { encodeKNNResp(e, &knnResp{Stats: stats, Rows: rowsOf, Dists: dists}, codec) },
						refDec: skipStats(func(d *reader) ([]*particle.Buffer, error) {
							bufs, err := decRef(1)(d)
							if err != nil {
								return nil, err
							}
							_, err = decodeFloats(d, len(dists))
							return bufs, err
						}),
						rowDec: func(d *reader) ([]*particle.Buffer, error) {
							r, err := decodeKNNResp(d, 1<<30)
							if err != nil {
								return nil, err
							}
							if len(r.Dists) != len(dists) {
								return nil, fmt.Errorf("%d distances, want %d", len(r.Dists), len(dists))
							}
							return []*particle.Buffer{r.Rows.Buffer()}, nil
						},
					},
					{
						name: "halo",
						ref: func(e *writer) {
							encodeStats(e, &stats)
							refEncodeBuffer(e, buf, codec)
							refEncodeBuffer(e, other, codec)
						},
						rows: func(e *writer) {
							encodeHaloResp(e, &haloResp{Stats: stats, Own: rowsOf, Ghost: rowsOfOther}, codec)
						},
						refDec: skipStats(decRef(2)),
						rowDec: func(d *reader) ([]*particle.Buffer, error) {
							r, err := decodeHaloResp(d, 1<<30)
							if err != nil {
								return nil, err
							}
							return []*particle.Buffer{r.Own.Buffer(), r.Ghost.Buffer()}, nil
						},
					},
				}
				for _, k := range kinds {
					what := fmt.Sprintf("%s n=%d fields=%d codec=%d", k.name, n, buf.Schema().NumFields(), codec)
					var ref frameBuf
					re := newWriter(&ref)
					k.ref(re)
					if re.err != nil {
						t.Fatalf("%s: reference encode: %v", what, re.err)
					}
					got := vecBody(t, k.rows)
					if !bytes.Equal(got, ref.b) {
						t.Errorf("%s: rows frame (%d bytes) differs from the reference frame (%d bytes)", what, len(got), len(ref.b))
						continue
					}
					want := []*particle.Buffer{buf}
					if k.name == "halo" {
						want = append(want, other)
					}
					for name, dec := range map[string]func(d *reader) ([]*particle.Buffer, error){
						"rows decoder on the reference frame": k.rowDec,
						"reference decoder on the rows frame": k.refDec,
					} {
						frame := ref.b
						if name == "reference decoder on the rows frame" {
							frame = got
						}
						// Both reader shapes: over the body (payload lent) and
						// over a stream (payload copied).
						for _, d := range []*reader{bodyReader(frame), newReader(bytes.NewReader(frame))} {
							bufs, err := dec(d)
							if err != nil {
								t.Errorf("%s: %s: %v", what, name, err)
								continue
							}
							if d.n != int64(len(frame)) {
								t.Errorf("%s: %s: consumed %d of %d bytes", what, name, d.n, len(frame))
							}
							for i, b := range bufs {
								if !b.Equal(want[i]) {
									t.Errorf("%s: %s: answer %d is not bit-equal", what, name, i)
								}
							}
						}
					}
				}
				rowsOf.Release()
				rowsOfOther.Release()
			}
		}
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held", got-held)
	}
}
