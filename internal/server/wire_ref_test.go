package server

import (
	"bytes"
	"fmt"
	"testing"

	"spio/internal/binio"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// The columnar wire codec this package had before answers travelled as
// rows, kept as the reference the rows codec is pinned to: the frames on
// the socket are the contract, however they are produced.
// refEncodeBuffer transposes a Buffer to a staged AoS image and copies
// that into the frame; refDecodeBuffer copies the payload out of the
// frame and transposes it into columns.

func refEncodeBuffer(e *binio.Writer, buf *particle.Buffer) {
	format.EncodeSchema(e, buf.Schema())
	e.U64(uint64(buf.Len()))
	data := make([]byte, buf.Len()*buf.Schema().Stride())
	buf.EncodeRecordsInto(data, 0, buf.Len())
	e.Bytes(data)
}

func refDecodeBuffer(d *binio.Reader, limit int64) (*particle.Buffer, error) {
	schema, err := format.DecodeSchema(d)
	if err != nil {
		return nil, err
	}
	n := d.U64()
	if n > uint64(limit) {
		d.Fail("buffer of %d records exceeds limit %d bytes", n, limit)
	}
	size := n * uint64(schema.Stride())
	if d.Err() == nil && size > uint64(limit) {
		d.Fail("buffer payload of %d bytes exceeds limit %d", size, limit)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	data := make([]byte, size)
	d.Bytes(data)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return particle.Decode(schema, data)
}

// encodeBuffer and decodeBuffer let the wire tests written against the
// columnar codec run unchanged against the rows codec.

func encodeBuffer(e *binio.Writer, buf *particle.Buffer) {
	rows := buf.Rows()
	defer rows.Release()
	encodeRows(e, rows)
}

func decodeBuffer(d *binio.Reader, limit int64) (*particle.Buffer, error) {
	rows, err := decodeRows(d, limit)
	if err != nil {
		return nil, err
	}
	return rows.Buffer(), nil
}

// vecBody encodes a response the way Front.send does — into a vecFrame,
// written with one vectored write — and returns the body that reached
// the writer, having checked the length prefix in front of it.
func vecBody(t *testing.T, enc func(e *binio.Writer)) []byte {
	t.Helper()
	fr := newVecFrame()
	e := binio.NewWriter(fr)
	enc(e)
	if e.Err() != nil {
		t.Fatalf("encode: %v", e.Err())
	}
	var out bytes.Buffer
	if err := fr.writeTo(&out); err != nil {
		t.Fatal(err)
	}
	body, err := recvBody(bytes.NewReader(out.Bytes()), 1<<30)
	if err != nil || len(body)+4 != out.Len() || len(body) != fr.size() {
		t.Fatalf("vectored frame: %d bytes written, body %d, size %d: %v", out.Len(), len(body), fr.size(), err)
	}
	return body
}

// TestWireFramesMatchReference is the differential test of the rows
// codec: over {0, 1, either side of a row block, three blocks and a
// ragged tail} records x {whole Uintah records, positions only} x
// {query, KNN, halo responses}, the frame the rows
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
	for _, n := range []int{0, 1, particle.RowBlock - 1, particle.RowBlock, particle.RowBlock + 1, 3*particle.RowBlock + 17} {
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
			// One response kind: an op's answer, and the buffers the columnar
			// reference encodes it as, a KNN's distances behind them.
			rowsOf, rowsOfOther := buf.Rows(), other.Rows()
			kinds := []struct {
				name string
				op   uint8
				a    rdr.Answer
				want []*particle.Buffer
			}{
				{"query", rdr.OpQueryBox, rdr.Answer{Rows: rowsOf}, []*particle.Buffer{buf}},
				{"knn", rdr.OpKNN, rdr.Answer{Rows: rowsOf, Floats: dists}, []*particle.Buffer{buf}},
				{"halo", rdr.OpHalo, rdr.Answer{Rows: rowsOf, Ghost: rowsOfOther}, []*particle.Buffer{buf, other}},
			}
			for _, k := range kinds {
				what := fmt.Sprintf("%s n=%d fields=%d", k.name, n, buf.Schema().NumFields())
				var ref bytes.Buffer
				re := binio.NewWriter(&ref)
				encodeStats(re, &stats)
				for _, b := range k.want {
					refEncodeBuffer(re, b)
				}
				if k.op == rdr.OpKNN {
					encodeFloats(re, dists)
				}
				if re.Err() != nil {
					t.Fatalf("%s: reference encode: %v", what, re.Err())
				}
				got := vecBody(t, func(e *binio.Writer) { encodeAnswer(e, k.op, &stats, &k.a) })
				if !bytes.Equal(got, ref.Bytes()) {
					t.Errorf("%s: rows frame (%d bytes) differs from the reference frame (%d bytes)", what, len(got), ref.Len())
					continue
				}
				refDec := func(d *binio.Reader) (bufs []*particle.Buffer, err error) {
					if st, err := decodeStats(d); err != nil || *st != stats {
						return nil, fmt.Errorf("stats %+v: %v", st, err)
					}
					for range k.want {
						b, err := refDecodeBuffer(d, 1<<30)
						if err != nil {
							return nil, err
						}
						bufs = append(bufs, b)
					}
					if k.op == rdr.OpKNN {
						_, err = decodeFloats(d, len(dists))
					}
					return bufs, err
				}
				rowDec := func(d *binio.Reader) ([]*particle.Buffer, error) {
					a, err := decodeAnswer(d, k.op, int64(len(got)))
					if err != nil {
						return nil, err
					}
					if len(a.Floats) != len(k.a.Floats) {
						return nil, fmt.Errorf("%d distances, want %d", len(a.Floats), len(k.a.Floats))
					}
					bufs := []*particle.Buffer{a.Rows.Buffer()}
					if a.Ghost != nil {
						bufs = append(bufs, a.Ghost.Buffer())
					}
					return bufs, nil
				}
				for name, dec := range map[string]func(d *binio.Reader) ([]*particle.Buffer, error){
					"rows decoder on the reference frame": rowDec,
					"reference decoder on the rows frame": refDec,
				} {
					frame := ref.Bytes()
					if name == "reference decoder on the rows frame" {
						frame = got
					}
					// Both ways in: over a stream of the body, and as the
					// body of a frame read through the frame reader, which
					// refuses a frame not consumed whole.
					for _, framed := range []bool{false, true} {
						var bufs []*particle.Buffer
						var err error
						if framed {
							var stream bytes.Buffer
							if err := sendBody(&stream, frame); err != nil {
								t.Fatal(err)
							}
							err = newFrameIn(&stream).read(1<<30, "response", func(d *binio.Reader, _ int64) (err error) {
								bufs, err = dec(d)
								return err
							})
						} else {
							d := binio.NewReader(bytes.NewReader(frame), "spiod")
							if bufs, err = dec(d); err == nil && d.N() != int64(len(frame)) {
								err = fmt.Errorf("consumed %d of %d bytes", d.N(), len(frame))
							}
						}
						if err != nil {
							t.Errorf("%s: %s (framed %v): %v", what, name, framed, err)
							continue
						}
						for i, b := range bufs {
							if !b.Equal(k.want[i]) {
								t.Errorf("%s: %s (framed %v): answer %d is not bit-equal", what, name, framed, i)
							}
						}
					}
				}
			}
			rowsOf.Release()
			rowsOfOther.Release()
		}
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held", got-held)
	}
}
