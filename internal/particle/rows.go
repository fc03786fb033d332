package particle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"spio/internal/geom"
)

// Rows is the answer of a read in the layout it was found in and the
// layout the wire sends: compact AoS records of one schema. A filter
// stages its survivors as rows anyway (their number is not known until
// the last chunk has been looked at); naming that staging lets an answer
// travel filter → wire → caller without being transposed to columns and
// back on the way. The columns a caller of the public API gets are made
// once, at the edge, by Buffer.
//
// It is also a write's aggregate: what senders put on the wire is the
// record encoding, so an aggregator places each arriving payload in the
// rows at its sender's offset (Extend, Span) and the file is gathered out
// of them in LOD order (Gather) — a particle is transposed once on the
// write path, at its sender.
//
// The records live in pooled segments of one capacity class. A segment
// holds a whole number of blocks (RowBlock rows), so every block of a
// Rows is contiguous in memory and a row is found by a shift and a mask
// (Gather).
//
// Ownership: a Rows belongs to whoever holds it, and the holder ends its
// life with exactly one of Buffer (the columns, for a caller that wants
// them), Append onto another Rows (a merge), or Release. After that the
// segments are back in the pool and about to be overwritten: nothing may
// keep a slice obtained from Segments or Block. A Rows is not safe for
// concurrent use.
type Rows struct {
	schema *Schema
	stride int
	perSeg int      // rows a full segment holds; a multiple of RowBlock
	segs   [][]byte // len = rows held × stride; every segment but the last is full
	n      int
}

// RowBlock is the block of a Rows: segments hold whole blocks, so each is
// contiguous. A power of two, so a row's block and its place in it are a
// shift and a mask.
const (
	rowBlockShift = 13
	RowBlock      = 1 << rowBlockShift
)

// rowSegBytes is the one capacity every pooled segment has, so whatever
// is in the pool serves whatever asks: a megabyte holds one block of
// Uintah records, five of bare positions.
const rowSegBytes = 1 << 20

var (
	rowSegPool  = Pool[[]byte]{New: func() []byte { return make([]byte, 0, rowSegBytes) }}
	rowSegsHeld atomic.Int64 // segments inside live Rows
)

// RowSegmentsHeld returns the number of segments currently owned by Rows
// that have not been released. A process with no read in flight holds
// none; tests use it to check that every exit path releases.
func RowSegmentsHeld() int64 { return rowSegsHeld.Load() }

// NewRows returns an empty Rows of the schema. It holds no segment until
// a row is added.
func NewRows(schema *Schema) *Rows {
	if schema == nil {
		panic("particle: nil schema")
	}
	stride := schema.Stride()
	return &Rows{schema: schema, stride: stride,
		perSeg: max(rowSegBytes/(RowBlock*stride), 1) * RowBlock}
}

// Schema returns the schema of the rows.
func (r *Rows) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Bytes returns the size of the rows: the raw payload they are.
func (r *Rows) Bytes() int64 { return int64(r.n) * int64(r.stride) }

// Segments returns the rows in order, a whole number of records per
// slice. The slices are the Rows' own memory: read-only, and dead once
// the Rows is released.
func (r *Rows) Segments() [][]byte { return r.segs }

// NumBlocks returns the number of blocks the rows form.
func (r *Rows) NumBlocks() int { return (r.n + RowBlock - 1) / RowBlock }

// Block returns rows [i·RowBlock, (i+1)·RowBlock) — the last block may
// be short — as one contiguous slice of the Rows' own memory.
func (r *Rows) Block(i int) []byte {
	lo := i * RowBlock
	seg := r.segs[lo/r.perSeg]
	at := lo % r.perSeg * r.stride
	return seg[at:min(len(seg), at+RowBlock*r.stride)]
}

// room returns the unwritten tail of the last segment, a whole number of
// rows: space for want more, or for as many as the segment still takes
// (at least one; a new segment when the last is full). advance commits
// what the caller wrote there.
func (r *Rows) room(want int) []byte {
	full := r.perSeg * r.stride
	last := len(r.segs) - 1
	if last < 0 || len(r.segs[last]) == full {
		rowSegsHeld.Add(1)
		r.segs = append(r.segs, rowSegPool.Get()[:0])
		last++
	}
	seg := r.segs[last]
	need := min(len(seg)+want*r.stride, full)
	if cap(seg) < need {
		// Only a schema whose block outgrows the pooled class gets here:
		// its segment is a plain allocation that doubles up to one block.
		grown := make([]byte, len(seg), min(max(2*cap(seg), need), full))
		copy(grown, seg)
		recycleRowSeg(seg)
		r.segs[last], seg = grown, grown
	}
	tail := seg[len(seg):min(cap(seg), full)]
	return tail[:len(tail)/r.stride*r.stride]
}

// advance commits rows written into the slice room returned.
func (r *Rows) advance(rows int) {
	last := len(r.segs) - 1
	r.segs[last] = r.segs[last][:len(r.segs[last])+rows*r.stride]
	r.n += rows
}

// Extend adds count rows of unspecified content — whatever the pooled
// segments last held — for a caller about to overwrite every one of them
// (Span, Block).
func (r *Rows) Extend(count int) {
	for count > 0 {
		k := min(len(r.room(count))/r.stride, count)
		r.advance(k)
		count -= k
	}
}

// Span hands fn the memory of rows [at, at+n) piece by piece, to read or
// to overwrite: dst is rows [at+lo, at+lo+len(dst)/stride), as far as
// they are contiguous in one segment.
func (r *Rows) Span(at, n int, fn func(lo int, dst []byte)) {
	if at < 0 || n < 0 || at+n > r.n {
		panic(fmt.Sprintf("particle: Span[%d:%d] of %d rows", at, at+n, r.n))
	}
	for lo := 0; lo < n; {
		seg, off := r.segs[(at+lo)/r.perSeg], (at+lo)%r.perSeg
		k := min(n-lo, r.perSeg-off)
		fn(lo, seg[off*r.stride:(off+k)*r.stride])
		lo += k
	}
}

// Gather writes records [lo, hi) of the rows taken in the given order
// into dst, which must be exactly (hi-lo)·stride bytes: record i is row
// order[i], or row i when order is nil. It is the one loop between an
// aggregate and its file: a shift, a mask and a row copy per record, out
// of a table of the rows' blocks.
func (r *Rows) Gather(dst []byte, order []int, lo, hi int) {
	stride := r.stride
	if len(dst) != (hi-lo)*stride {
		panic(fmt.Sprintf("particle: Gather dst has %d bytes, want %d", len(dst), (hi-lo)*stride))
	}
	if order == nil {
		r.Span(lo, hi-lo, func(at int, src []byte) { copy(dst[at*stride:], src) })
		return
	}
	var few [8][]byte
	blocks := few[:0]
	for i := 0; i < r.NumBlocks(); i++ {
		blocks = append(blocks, r.Block(i))
	}
	for i, row := range order[lo:hi] {
		at := (row & (RowBlock - 1)) * stride
		copy(dst[i*stride:(i+1)*stride], blocks[row>>rowBlockShift][at:at+stride])
	}
}

// Position returns the position of row i.
func (r *Rows) Position(i int) geom.Vec3 {
	return PositionAt(r.segs[i/r.perSeg], i%r.perSeg*r.stride)
}

// Bounds returns the closed bounding box of the rows' positions, bit for
// bit what Buffer.Bounds returns for the same particles.
func (r *Rows) Bounds() geom.Box {
	box := geom.EmptyBox()
	lo := [3]float64{box.Lo.X, box.Lo.Y, box.Lo.Z}
	hi := [3]float64{box.Hi.X, box.Hi.Y, box.Hi.Z}
	for _, seg := range r.segs {
		for at := 0; at < len(seg); at += r.stride {
			p := PositionAt(seg, at)
			rangeScan(p.X, &lo[0], &hi[0])
			rangeScan(p.Y, &lo[1], &hi[1])
			rangeScan(p.Z, &lo[2], &hi[2])
		}
	}
	return geom.Box{
		Lo: geom.Vec3{X: lo[0], Y: lo[1], Z: lo[2]},
		Hi: geom.Vec3{X: hi[0], Y: hi[1], Z: hi[2]},
	}
}

// FieldRanges returns the per-component minima and maxima of every field,
// flattened in schema order, bit for bit what Buffer.FieldRanges returns
// for the same particles (rangeScan folds each component in row order on
// both sides); nil for no rows. One pass over the records.
func (r *Rows) FieldRanges() (mins, maxs []float64) {
	if r.n == 0 {
		return nil, nil
	}
	type component struct {
		off  int
		kind Kind
	}
	var comps []component
	for fi := 0; fi < r.schema.NumFields(); fi++ {
		f := r.schema.Field(fi)
		for k := 0; k < f.Components; k++ {
			comps = append(comps, component{off: r.schema.Offset(fi) + k*f.Kind.Size(), kind: f.Kind})
			mins = append(mins, math.Inf(1))
			maxs = append(maxs, math.Inf(-1))
		}
	}
	for _, seg := range r.segs {
		for at := 0; at < len(seg); at += r.stride {
			rec := seg[at : at+r.stride]
			for j, c := range comps {
				var v float64
				if c.kind == Float32 {
					v = float64(math.Float32frombits(binary.LittleEndian.Uint32(rec[c.off:])))
				} else {
					v = math.Float64frombits(binary.LittleEndian.Uint64(rec[c.off:]))
				}
				rangeScan(v, &mins[j], &maxs[j])
			}
		}
	}
	return mins, maxs
}

// AppendRecords copies recs, whole records of the schema, after the rows
// already held.
func (r *Rows) AppendRecords(recs []byte) {
	if len(recs)%r.stride != 0 {
		panic(fmt.Sprintf("particle: %d bytes is not a multiple of record size %d", len(recs), r.stride))
	}
	for len(recs) > 0 {
		dst := r.room(len(recs) / r.stride)
		k := min(len(dst), len(recs))
		copy(dst, recs[:k])
		r.advance(k / r.stride)
		recs = recs[k:]
	}
}

// Append moves the rows of o after the rows of r and releases o: the
// merge of two answers. Schemas must match.
func (r *Rows) Append(o *Rows) {
	if r.schema != o.schema && !r.schema.Equal(o.schema) {
		panic("particle: Append across different schemas")
	}
	if r.n == 0 {
		r.Release()
		r.segs, r.n = o.segs, o.n
		o.segs, o.n = nil, 0
		return
	}
	for _, seg := range o.segs {
		r.AppendRecords(seg)
	}
	o.Release()
}

// Rows returns the buffer's particles as rows: the record encoding,
// written once into pooled segments.
func (b *Buffer) Rows() *Rows {
	r := NewRows(b.schema)
	for lo := 0; lo < b.n; {
		dst := r.room(b.n - lo)
		k := min(len(dst)/r.stride, b.n-lo)
		b.EncodeRecordsInto(dst[:k*r.stride], lo, lo+k)
		r.advance(k)
		lo += k
	}
	return r
}

// Buffer returns the rows as columns, allocated once at their exact
// size, and releases the rows. It is the one transposition an answer
// undergoes, made where a caller wants columns.
func (r *Rows) Buffer() *Buffer {
	out := NewBuffer(r.schema, 0)
	out.SetLen(r.n)
	at := 0
	for _, seg := range r.segs {
		// Segments hold whole records of out's schema inside its range.
		_ = out.DecodeRecordsAt(seg, at)
		at += len(seg) / r.stride
	}
	r.Release()
	return out
}

// Release returns the segments to the pool and empties the Rows. It is
// safe on a nil or already released Rows.
func (r *Rows) Release() {
	if r == nil {
		return
	}
	for _, seg := range r.segs {
		rowSegsHeld.Add(-1)
		recycleRowSeg(seg)
	}
	r.segs, r.n = nil, 0
}

// recycleRowSeg pools a segment of the pooled class; a grown one is left
// to the collector.
func recycleRowSeg(seg []byte) {
	if cap(seg) == rowSegBytes {
		rowSegPool.Put(seg)
	}
}
