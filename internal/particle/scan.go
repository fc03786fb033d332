package particle

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spio/internal/geom"
)

// The fused filter kernel of the read path. A box query looks at every
// record of every intersecting file and keeps a small fraction of them,
// so what it does with the rest is the cost. A format.DataFile scan runs
// it in two steps: select — the closed box is tested on the positions
// and the survivors of a chunk are named by a selection vector — then
// take: only they, and only the projected fields, are copied out.
// Nothing is decoded for a record that is thrown away, and because the
// scan knows the selection before the take, a compressed block never
// assembles any field of such a record, its position included
// (DecompressPickedInto).
//
// The select is one test in two kernels, one per layout the positions
// can arrive in: SelectClosed over AoS records (the position is field 0,
// so it sits at byte 0 of every record) and selectPlanes over a
// compressed block's position byte planes. Both make all six comparisons
// of every record and add their AND to the count, so no branch depends
// on the data. The third, SelectIndexed (cells.go), runs SelectClosed on
// the positions of only the cells a box meets, from a cell index a
// serving cache keeps beside a raw file's records.
//
// BoxFilter, HaloFilter and NearestFilter are the kernel as the readers
// use it — a box for the scan to select by and a scan callback plus the
// result, handed out as Rows (for an answer that is going onto the wire) or as the
// Buffer made from them; RowFiller is their unfiltered sibling, and
// Filler fills columns directly for a local read whose size is known up
// front.

// BoxFilter is a box query as a scan sees it: the scan selects the
// records whose position lies in the closed Box, Take collects them
// projected onto proj's fields.
type BoxFilter struct {
	q      geom.Box
	stride int
	kept   *collector
}

// NewBoxFilter returns a filter over records of schema src keeping the
// fields of proj (nil keeps whole records).
func NewBoxFilter(src *Schema, proj *Projection, q geom.Box) *BoxFilter {
	return &BoxFilter{q: q, stride: src.Stride(), kept: newCollector(src, proj)}
}

// Box is the closed box the scan selects by.
func (f *BoxFilter) Box() *geom.Box { return &f.q }

// Take is the scan callback: it copies the picked records of one chunk.
// Records that were not picked are not looked at.
func (f *BoxFilter) Take(recs []byte, picked []int32) error {
	f.kept.add(recs, f.stride, picked)
	return nil
}

// Rows returns the records kept so far, in the order they were seen, and
// resets the filter. The caller owns them (see Rows).
func (f *BoxFilter) Rows() *Rows { return f.kept.rows() }

// Buffer is Rows as columns allocated once at their exact size.
func (f *BoxFilter) Buffer() *Buffer { return f.Rows().Buffer() }

// Release drops the records kept so far: the exit of a scan that failed.
func (f *BoxFilter) Release() { f.kept.rows().Release() }

// HaloFilter is a halo read as a scan sees it: the scan selects the
// records inside the closed grown Box, Take splits them into those the
// half-open patch owns and the ghosts around it and collects both.
type HaloFilter struct {
	grown, patch geom.Box
	stride       int
	in, rest     []int32
	own, ghosts  *collector
}

// NewHaloFilter returns a filter over records of schema src keeping the
// fields of proj (nil keeps whole records).
func NewHaloFilter(src *Schema, proj *Projection, grown, patch geom.Box) *HaloFilter {
	return &HaloFilter{grown: grown, patch: patch, stride: src.Stride(),
		own: newCollector(src, proj), ghosts: newCollector(src, proj)}
}

// Box is the closed box the scan selects by: the grown box.
func (f *HaloFilter) Box() *geom.Box { return &f.grown }

// Take is the scan callback: it splits the picked records of one chunk
// by the patch and copies them. Records that were not picked are not
// looked at, and picked is the scan's: the split goes into the filter's
// own vectors.
func (f *HaloFilter) Take(recs []byte, picked []int32) error {
	f.in, f.rest = splitHalfOpen(picked, recs, f.stride, f.patch, f.in[:0], f.rest[:0])
	f.own.add(recs, f.stride, f.in)
	f.ghosts.add(recs, f.stride, f.rest)
	return nil
}

// Rows returns the owned and the ghost records and resets the filter.
// The caller owns both.
func (f *HaloFilter) Rows() (own, ghost *Rows) { return f.own.rows(), f.ghosts.rows() }

// Release drops the records kept so far: the exit of a scan that failed.
func (f *HaloFilter) Release() {
	f.own.rows().Release()
	f.ghosts.rows().Release()
}

// NearestFilter is a k-nearest-neighbour search as a scan sees it: the
// scan selects the records inside the closed Box around the query point,
// Take ranks each picked record by its distance to the point and keeps it
// only while it is among the k nearest seen — ties going to the one that
// arrived first — so a search holds k records however many its box
// holds. It keeps whole records.
type NearestFilter struct {
	q      geom.Box
	p      geom.Vec3
	k      int
	schema *Schema
	stride int
	seen   int64     // records offered since Reset
	recs   []byte    // the kept records, slot s at s·stride
	heap   []nearest // a max-heap on (dist, seq): the farthest kept on top
}

// nearest is one kept record: its rank keys and where its bytes are.
type nearest struct {
	dist float64
	seq  int64 // arrival, the tie-break
	slot int
}

// farther orders the heap: a ranks after b.
func (a nearest) farther(b nearest) bool {
	return a.dist > b.dist || (a.dist == b.dist && a.seq > b.seq)
}

// NewNearestFilter returns a filter keeping the k records of schema src
// nearest to p among those inside the box Reset gives it.
func NewNearestFilter(src *Schema, p geom.Vec3, k int) *NearestFilter {
	stride := src.Stride()
	return &NearestFilter{p: p, k: k, schema: src, stride: stride,
		recs: make([]byte, k*stride), heap: make([]nearest, 0, k)}
}

// Reset drops what was kept and makes q the box of the next scan.
func (f *NearestFilter) Reset(q geom.Box) {
	f.q, f.seen, f.heap = q, 0, f.heap[:0]
}

// Box is the closed box the scan selects by.
func (f *NearestFilter) Box() *geom.Box { return &f.q }

// Take is the scan callback: it ranks the picked records of one chunk and
// copies out those that enter the k nearest (the chunk is the scan's, and
// recycled after the call).
func (f *NearestFilter) Take(recs []byte, picked []int32) error {
	for _, i := range picked {
		off := int(i) * f.stride
		c := nearest{dist: f.p.Dist(PositionAt(recs, off)), seq: f.seen}
		f.seen++
		switch {
		case len(f.heap) < f.k:
			c.slot = len(f.heap)
			f.heap = append(f.heap, c)
			f.siftUp(len(f.heap) - 1)
		case f.heap[0].farther(c):
			c.slot = f.heap[0].slot
			f.heap[0] = c
			f.siftDown(0)
		default:
			continue
		}
		copy(f.recs[c.slot*f.stride:(c.slot+1)*f.stride], recs[off:off+f.stride])
	}
	return nil
}

// siftUp moves h[i] above every parent nearer than it.
func (f *NearestFilter) siftUp(i int) {
	h := f.heap
	for i > 0 {
		up := (i - 1) / 2
		if !h[i].farther(h[up]) {
			return
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// siftDown moves h[i] below every child farther than it, always swapping
// with the farther child so that the top stays the farthest.
func (f *NearestFilter) siftDown(i int) {
	h := f.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].farther(h[c]) {
			c++
		}
		if !h[c].farther(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Seen returns the number of records the scan offered since Reset: the
// candidates inside the box.
func (f *NearestFilter) Seen() int64 { return f.seen }

// Kth returns the distance of the k-th nearest record kept, +Inf while
// fewer than k have been seen.
func (f *NearestFilter) Kth() float64 {
	if len(f.heap) < f.k {
		return math.Inf(1)
	}
	return f.heap[0].dist
}

// Rows returns the records kept, nearest first, and their distances, and
// resets the filter. The caller owns the rows (see Rows).
func (f *NearestFilter) Rows() (*Rows, []float64) {
	order := f.heap
	slices.SortFunc(order, func(a, b nearest) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.seq, b.seq))
	})
	out := NewRows(f.schema)
	dists := make([]float64, len(order))
	for i, c := range order {
		out.AppendRecords(f.recs[c.slot*f.stride : (c.slot+1)*f.stride])
		dists[i] = c.dist
	}
	f.Reset(f.q)
	return out, dists
}

// RowFiller is the scan callback of an unfiltered read that keeps its
// records as rows: every record of every chunk, projected onto proj's
// fields. The record count is known before the first chunk arrives (from
// headers or metadata) and is checked at the end.
type RowFiller struct {
	kept   *collector
	stride int // source record bytes
	want   int
}

// NewRowFiller returns a filler for n records of schema src, keeping the
// fields of proj (nil keeps whole records).
func NewRowFiller(src *Schema, proj *Projection, n int) *RowFiller {
	return &RowFiller{kept: newCollector(src, proj), stride: src.Stride(), want: n}
}

// Chunk is the scan callback of a scan without a box: it keeps every
// record of one chunk.
func (f *RowFiller) Chunk(recs []byte, _ []int32) error {
	f.kept.addAll(recs, f.stride)
	return nil
}

// Release drops the records kept so far: the exit of a scan that failed.
func (f *RowFiller) Release() { f.kept.rows().Release() }

// Rows returns the records kept; the caller owns them. It fails, holding
// nothing, if the chunks did not add up to the size the filler was made
// for: what the sizes were taken from disagrees with the records that
// were there.
func (f *RowFiller) Rows() (*Rows, error) {
	out := f.kept.rows()
	if out.Len() != f.want {
		got := out.Len()
		out.Release()
		return nil, fmt.Errorf("particle: read %d records where %d were announced", got, f.want)
	}
	return out, nil
}

// Filler is the scan callback of an unfiltered local read of whole
// records whose count is known before the first chunk arrives: the
// result columns are allocated once, at that size, and every chunk
// decodes straight into place, with no rows staged in between.
type Filler struct {
	out *Buffer
	at  int // particles filled so far
}

// NewFiller returns a filler for n records of the schema.
func NewFiller(schema *Schema, n int) *Filler {
	out := NewBuffer(schema, 0)
	out.SetLen(n)
	return &Filler{out: out}
}

// Chunk is the scan callback of a scan without a box: it decodes one
// chunk of AoS records after the ones before it. It fails if the chunks
// run past the size the filler was made for.
func (f *Filler) Chunk(recs []byte, _ []int32) error {
	err := f.out.DecodeRecordsAt(recs, f.at)
	f.at += len(recs) / f.out.schema.stride
	return err
}

// Buffer returns the filled buffer. It fails if the chunks did not add
// up to the size the filler was made for.
func (f *Filler) Buffer() (*Buffer, error) {
	if f.at != f.out.Len() {
		return nil, fmt.Errorf("particle: read %d records where %d were announced", f.at, f.out.Len())
	}
	return f.out, nil
}

// PositionAt decodes the position of the record starting at recs[off].
func PositionAt(recs []byte, off int) geom.Vec3 {
	row := recs[off : off+24]
	return geom.Vec3{
		X: math.Float64frombits(binary.LittleEndian.Uint64(row[0:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(row[8:])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(row[16:])),
	}
}

// SelectClosed is the records kernel: it appends to sel the index of
// every record of recs (rows stride bytes apart, the position at byte 0
// of each) whose position lies in the closed box q, in record order. It
// grows sel once by the record count, writes every index, and moves past
// it by inClosed's 0 or 1.
func SelectClosed(sel []int32, recs []byte, stride int, q *geom.Box) []int32 {
	n := len(recs) / stride
	at := len(sel)
	sel = slices.Grow(sel, n)[:at+n]
	out, k := sel[at:], 0
	lo, hi := q.Lo, q.Hi
	for i, off := 0, 0; i < n; i, off = i+1, off+stride {
		row := recs[off : off+24]
		x := math.Float64frombits(binary.LittleEndian.Uint64(row[0:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
		z := math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
		out[k] = int32(i)
		k += inClosed(lo, hi, x, y, z)
	}
	return sel[:at+k]
}

// selectPlanes is the planes kernel: SelectClosed over the position of a
// compressed block as it inflates, eight byte planes of the block's
// count x 3 float64 components (shuffleFromRecords' layout). It selects
// among records [lo, hi), with indices relative to lo, and writes no
// position anywhere: eight records at a time, three register transposes
// turn a word of each plane into their 24 components. The caller
// assembles the positions of the picked rows alone (unshuffleRows).
func selectPlanes(sel []int32, planes []byte, count, lo, hi int, q *geom.Box) []int32 {
	nelem := 3 * count
	p0, p1, p2, p3 := planes[:nelem], planes[nelem:2*nelem], planes[2*nelem:3*nelem], planes[3*nelem:4*nelem]
	p4, p5, p6, p7 := planes[4*nelem:5*nelem], planes[5*nelem:6*nelem], planes[6*nelem:7*nelem], planes[7*nelem:8*nelem]
	n := hi - lo
	at := len(sel)
	sel = slices.Grow(sel, n)[:at+n]
	out, k := sel[at:], 0
	qlo, qhi := q.Lo, q.Hi
	i := 0
	for ; i+8 <= n; i += 8 {
		var v [24]uint64
		for t, e := 0, 3*(lo+i); t < 24; t, e = t+8, e+8 {
			v[t], v[t+1], v[t+2], v[t+3], v[t+4], v[t+5], v[t+6], v[t+7] = transpose8x8(
				binary.LittleEndian.Uint64(p0[e:]), binary.LittleEndian.Uint64(p1[e:]),
				binary.LittleEndian.Uint64(p2[e:]), binary.LittleEndian.Uint64(p3[e:]),
				binary.LittleEndian.Uint64(p4[e:]), binary.LittleEndian.Uint64(p5[e:]),
				binary.LittleEndian.Uint64(p6[e:]), binary.LittleEndian.Uint64(p7[e:]))
		}
		for j := 0; j < 8; j++ {
			out[k] = int32(i + j)
			k += inClosed(qlo, qhi, math.Float64frombits(v[3*j]), math.Float64frombits(v[3*j+1]), math.Float64frombits(v[3*j+2]))
		}
	}
	for ; i < n; i++ {
		var c [3]float64
		for m, e := 0, 3*(lo+i); m < 3; m, e = m+1, e+1 {
			c[m] = math.Float64frombits(uint64(p0[e]) | uint64(p1[e])<<8 | uint64(p2[e])<<16 | uint64(p3[e])<<24 |
				uint64(p4[e])<<32 | uint64(p5[e])<<40 | uint64(p6[e])<<48 | uint64(p7[e])<<56)
		}
		out[k] = int32(i)
		k += inClosed(qlo, qhi, c[0], c[1], c[2])
	}
	return sel[:at+k]
}

// inClosed is the one containment test of the read path, 1 if (x, y, z)
// lies in the closed box [lo, hi] and 0 if not: geom.Box.ContainsClosed
// written out, so a NaN coordinate fails every comparison and an empty
// box (Lo > Hi) holds nothing. All six comparisons are made and ANDed as
// integers: no short circuit, no branch. The corners come by value so
// that it inlines and a kernel holds them in registers.
func inClosed(lo, hi geom.Vec3, x, y, z float64) int {
	return b2i(x >= lo.X) & b2i(x <= hi.X) & b2i(y >= lo.Y) & b2i(y <= hi.Y) & b2i(z >= lo.Z) & b2i(z <= hi.Z)
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// splitHalfOpen partitions a selection by the half-open box: the
// selected records inside [Lo, Hi) are appended to in, the others to
// rest, order kept. sel is only read.
func splitHalfOpen(sel []int32, recs []byte, stride int, box geom.Box, in, rest []int32) ([]int32, []int32) {
	for _, i := range sel {
		if box.Contains(PositionAt(recs, int(i)*stride)) {
			in = append(in, i)
		} else {
			rest = append(rest, i)
		}
	}
	return in, rest
}

// collector accumulates the records a scan keeps. The number of
// survivors is not known until the last chunk has been filtered, and the
// chunks are recycled under the scan, so kept records are copied —
// projected fields only — as compact rows of the output schema into a
// Rows. The copy touches survivors only.
type collector struct {
	schema *Schema // output schema
	spans  []span  // byte ranges of a source record that form an output row
	stride int     // output row bytes
	kept   *Rows
}

// span is one contiguous byte range of a source record.
type span struct{ off, n int }

// newCollector returns a collector for records of schema src, keeping
// the fields of proj (nil keeps whole records).
func newCollector(src *Schema, proj *Projection) *collector {
	c := &collector{schema: src, spans: []span{{0, src.Stride()}}}
	if proj != nil {
		c.schema = proj.sub
		c.spans = c.spans[:0]
		for k, off := range proj.srcOffset {
			n := proj.sub.Field(k).Bytes()
			if last := len(c.spans) - 1; last >= 0 && c.spans[last].off+c.spans[last].n == off {
				c.spans[last].n += n
			} else {
				c.spans = append(c.spans, span{off, n})
			}
		}
	}
	c.stride = c.schema.Stride()
	c.kept = NewRows(c.schema)
	return c
}

// copyRow writes the output row of one source record to d.
func (c *collector) copyRow(d, row []byte) {
	for _, sp := range c.spans {
		copy(d[:sp.n], row[sp.off:sp.off+sp.n])
		d = d[sp.n:]
	}
}

// add copies the selected records of recs (source-schema rows stride
// bytes apart) into the collector, in selection order.
func (c *collector) add(recs []byte, stride int, sel []int32) {
	for len(sel) > 0 {
		dst := c.kept.room(len(sel))
		take := min(len(sel), len(dst)/c.stride)
		for j, i := range sel[:take] {
			c.copyRow(dst[j*c.stride:], recs[int(i)*stride:])
		}
		c.kept.advance(take)
		sel = sel[take:]
	}
}

// addAll copies every record of recs into the collector.
func (c *collector) addAll(recs []byte, stride int) {
	if len(c.spans) == 1 && c.spans[0].n == stride {
		c.kept.AppendRecords(recs)
		return
	}
	for n := len(recs) / stride; n > 0; {
		dst := c.kept.room(n)
		take := min(n, len(dst)/c.stride)
		for j := 0; j < take; j++ {
			c.copyRow(dst[j*c.stride:], recs[j*stride:])
		}
		c.kept.advance(take)
		recs, n = recs[take*stride:], n-take
	}
}

// rows hands the collected records to the caller and resets the
// collector.
func (c *collector) rows() *Rows {
	out := c.kept
	c.kept = NewRows(c.schema)
	return out
}
