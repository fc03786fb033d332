package particle

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spio/internal/geom"
)

// wideSchema has a record too wide for a block of it to fit the pooled
// segment class, so its segments grow instead.
func wideSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Field{
		{Name: PositionField, Kind: Float64, Components: 3},
		{Name: "tensor", Kind: Float64, Components: 36},
		{Name: "tag", Kind: Float32, Components: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if RowBlock*s.Stride() <= rowSegBytes {
		t.Fatalf("stride %d is not wide enough for the test", s.Stride())
	}
	return s
}

// TestRowsRoundTrip checks the Rows invariants over the sizes where they
// could slip — empty, one row, either side of a block and of a segment —
// for a schema with one block per segment, one with several, and one
// whose block outgrows the pooled class: the rows are the buffer's
// record encoding, every block is contiguous and where Block says it is,
// Buffer gives the buffer back, and no segment stays held.
func TestRowsRoundTrip(t *testing.T) {
	held := RowSegmentsHeld()
	for _, schema := range []*Schema{Uintah(), PositionOnly(), wideSchema(t)} {
		perSeg := NewRows(schema).perSeg
		for _, n := range []int{0, 1, RowBlock - 1, RowBlock, RowBlock + 1, perSeg, perSeg + 1, 3*RowBlock + 17} {
			buf := Uniform(schema, geom.UnitBox(), n, 3, 0)
			want := buf.Encode()
			r := buf.Rows()
			if r.Len() != n || r.Bytes() != int64(len(want)) || !r.Schema().Equal(schema) {
				t.Fatalf("%v n=%d: Rows reports %d rows, %d bytes", schema, n, r.Len(), r.Bytes())
			}
			if got := bytes.Join(r.Segments(), nil); !bytes.Equal(got, want) {
				t.Fatalf("%v n=%d: rows are not the record encoding", schema, n)
			}
			for i, seg := range r.Segments() {
				if i < len(r.Segments())-1 && len(seg) != perSeg*schema.Stride() {
					t.Fatalf("%v n=%d: segment %d holds %d bytes, a full one holds %d", schema, n, i, len(seg), perSeg*schema.Stride())
				}
			}
			if r.NumBlocks() != (n+RowBlock-1)/RowBlock {
				t.Fatalf("%v n=%d: %d blocks", schema, n, r.NumBlocks())
			}
			for i := 0; i < r.NumBlocks(); i++ {
				lo, hi := i*RowBlock*schema.Stride(), min((i+1)*RowBlock*schema.Stride(), len(want))
				if !bytes.Equal(r.Block(i), want[lo:hi]) {
					t.Fatalf("%v n=%d: block %d is not records [%d,%d)", schema, n, i, i*RowBlock, (i+1)*RowBlock)
				}
			}
			if !r.Buffer().Equal(buf) {
				t.Fatalf("%v n=%d: Buffer differs from the source", schema, n)
			}
			if r.Len() != 0 || len(r.Segments()) != 0 {
				t.Fatalf("%v n=%d: Buffer left the rows alive", schema, n)
			}
			r.Release() // a second release is harmless
		}
	}
	if got := RowSegmentsHeld(); got != held {
		t.Errorf("%d segments still held", got-held)
	}
}

// TestRowsAppend merges answers the way a gateway does: the result is the
// concatenation, the sources are released, and appending onto an empty
// Rows takes the segments over instead of copying them.
func TestRowsAppend(t *testing.T) {
	held := RowSegmentsHeld()
	schema := Uintah()
	parts := []int{RowBlock + 5, 0, 3, 2*RowBlock - 8, 1}
	var want []byte
	out := NewRows(schema)
	for i, n := range parts {
		buf := Uniform(schema, geom.UnitBox(), n, int64(i+1), 0)
		want = append(want, buf.Encode()...)
		r := buf.Rows()
		var first []byte
		if len(r.Segments()) > 0 {
			first = r.Segments()[0]
		}
		out.Append(r)
		if r.Len() != 0 || len(r.Segments()) != 0 {
			t.Fatalf("part %d: Append left its source alive", i)
		}
		if i == 0 && &out.Segments()[0][0] != &first[0] {
			t.Error("Append onto an empty Rows copied instead of taking the segments")
		}
	}
	if got := bytes.Join(out.Segments(), nil); !bytes.Equal(got, want) {
		t.Fatal("appended rows are not the concatenation")
	}
	for i := 0; i < out.NumBlocks(); i++ {
		lo, hi := i*RowBlock*schema.Stride(), min((i+1)*RowBlock*schema.Stride(), len(want))
		if !bytes.Equal(out.Block(i), want[lo:hi]) {
			t.Fatalf("block %d of the merged rows is misplaced", i)
		}
	}
	out.Release()
	if got := RowSegmentsHeld(); got != held {
		t.Errorf("%d segments still held", got-held)
	}
}

// TestRowFillerChecksCount: a fill that comes up short, or runs over,
// hands out nothing and holds nothing.
func TestRowFillerChecksCount(t *testing.T) {
	held := RowSegmentsHeld()
	schema := PositionOnly()
	recs := Uniform(schema, geom.UnitBox(), 10, 1, 0).Encode()
	for _, announced := range []int{9, 11} {
		f := NewRowFiller(schema, nil, announced)
		if err := f.Chunk(recs, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Rows(); err == nil {
			t.Errorf("10 records accepted where %d were announced", announced)
		}
	}
	f := NewRowFiller(schema, nil, 10)
	_ = f.Chunk(recs[:4*24], nil)
	_ = f.Chunk(recs[4*24:], nil)
	r, err := f.Rows()
	if err != nil || !bytes.Equal(bytes.Join(r.Segments(), nil), recs) {
		t.Fatalf("fill of the announced size: %v", err)
	}
	r.Release()
	if got := RowSegmentsHeld(); got != held {
		t.Errorf("%d segments still held", got-held)
	}
}

// TestRowsAsAggregate checks what the write path asks of its aggregate,
// against the column kernels it replaces there: rows placed by offset
// (Extend, Span) are the record encoding, Gather through an order is
// EncodeRecordsGather, and Position, Bounds and FieldRanges are the
// buffer's bit for bit — NaNs and signed zeros in non-position fields
// included, since a range keeps the bits of the value that set it.
func TestRowsAsAggregate(t *testing.T) {
	held := RowSegmentsHeld()
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for _, schema := range []*Schema{Uintah(), PositionOnly(), wideSchema(t)} {
		for _, n := range []int{0, 1, RowBlock, RowBlock + 1, 3*RowBlock + 17} {
			buf := Uniform(schema, geom.NewBox(geom.V3(-1, 0, 2), geom.V3(1, 3, 4)), n, 5, 0)
			if last := schema.NumFields() - 1; n > 1 && last > 0 {
				// The last field of both wide schemas is a float32 scalar.
				tag := buf.Float32Field(last)
				tag[0], tag[n/2], tag[n-1] = float32(math.NaN()), float32(math.Copysign(0, -1)), 0
				f64 := buf.Float64Field(1)
				f64[0], f64[1] = math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)
			}
			recs, stride := buf.Encode(), schema.Stride()

			// Placement by offset, in pieces laid down back to front.
			r := NewRows(schema)
			r.Extend(n)
			for hi := n; hi > 0; {
				lo := max(hi-5000, 0)
				r.Span(lo, hi-lo, func(at int, dst []byte) {
					copy(dst, recs[(lo+at)*stride:])
				})
				hi = lo
			}
			if !bytes.Equal(bytes.Join(r.Segments(), nil), recs) {
				t.Fatalf("%v n=%d: rows placed by Span differ from the record encoding", schema, n)
			}

			for _, order := range [][]int{nil, rand.New(rand.NewSource(9)).Perm(n)} {
				want := recs
				if order != nil {
					want = make([]byte, len(recs))
					buf.EncodeRecordsGather(want, order)
				}
				got := make([]byte, len(recs))
				for lo := 0; lo < n; lo += 3000 {
					hi := min(lo+3000, n)
					r.Gather(got[lo*stride:hi*stride], order, lo, hi)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v n=%d order=%v: Gather differs from the column gather", schema, n, order != nil)
				}
			}

			for _, i := range []int{0, n / 2, n - 1} {
				if i >= 0 && i < n && r.Position(i) != buf.Position(i) {
					t.Errorf("%v n=%d: Position(%d) = %v, want %v", schema, n, i, r.Position(i), buf.Position(i))
				}
			}
			if got, want := r.Bounds(), buf.Bounds(); got != want {
				t.Errorf("%v n=%d: Bounds %v, want %v", schema, n, got, want)
			}
			gotMin, gotMax := r.FieldRanges()
			wantMin, wantMax := buf.FieldRanges()
			if !slices.Equal(bits(gotMin), bits(wantMin)) || !slices.Equal(bits(gotMax), bits(wantMax)) {
				t.Errorf("%v n=%d: FieldRanges %v / %v, want %v / %v", schema, n, gotMin, gotMax, wantMin, wantMax)
			}
			r.Release()
		}
	}
	if got := RowSegmentsHeld(); got != held {
		t.Errorf("%d segments still held", got-held)
	}
}
