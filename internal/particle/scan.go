package particle

import (
	"encoding/binary"
	"fmt"
	"math"

	"spio/internal/geom"
)

// The fused filter kernel of the read path. A box query looks at every
// record of every intersecting file and keeps a small fraction of them,
// so what it does with the rest is the cost. These kernels work on the
// AoS record chunks a format.DataFile scan hands out, in two steps the
// scan runs itself: select — the box is tested on the position bytes in
// place (the position is field 0, so it sits at byte 0 of every record)
// and the survivors of a chunk are named by a selection vector — then
// take: only they, and only the projected fields, are copied out.
// Nothing is decoded for a record that is thrown away, and because the
// scan knows the selection before the take, a compressed block never
// even assembles the other fields of such a record
// (DecompressPickedInto).
//
// BoxFilter and HaloFilter are the kernel as the readers use it — a
// selector and a scan callback plus the result, handed out as Rows (for
// an answer that is going onto the wire) or as the Buffer made from
// them; RowFiller is their unfiltered sibling, and Filler fills columns
// directly for a local read whose size is known up front.

// Selector is the select step of a scan: it appends to sel the index of
// every record of recs (whole records of the scanned schema) that the
// scan is to keep, in record order, and returns the extended slice. It
// may look at positions only: of a chunk whose selection is not yet known
// nothing else is defined.
type Selector func(sel []int32, recs []byte) []int32

// BoxFilter is a box query as a scan sees it: Select keeps the records
// whose position lies in the closed box, Take collects them projected
// onto proj's fields.
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

// Select is the filter's Selector. It reads only what NewBoxFilter set.
func (f *BoxFilter) Select(sel []int32, recs []byte) []int32 {
	return selectClosed(sel, recs, f.stride, f.q)
}

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

// HaloFilter is a halo read as a scan sees it: Select keeps the records
// inside the closed grown box, Take splits them into those the half-open
// patch owns and the ghosts around it and collects both.
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

// Select is the filter's Selector. It reads only what NewHaloFilter set.
func (f *HaloFilter) Select(sel []int32, recs []byte) []int32 {
	return selectClosed(sel, recs, f.stride, f.grown)
}

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

// Chunk is the scan callback of a scan without a selector: it keeps every
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

// Chunk is the scan callback of a scan without a selector: it decodes one
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

// selectClosed appends to sel the index of every record of recs (rows
// stride bytes apart) whose position lies in the closed box q, in record
// order. The test is geom.Box.ContainsClosed written out: a NaN
// coordinate fails every comparison and is rejected, an empty box (Lo >
// Hi) keeps nothing.
func selectClosed(sel []int32, recs []byte, stride int, q geom.Box) []int32 {
	n := len(recs) / stride
	for i, off := 0, 0; i < n; i, off = i+1, off+stride {
		row := recs[off : off+24]
		x := math.Float64frombits(binary.LittleEndian.Uint64(row[0:]))
		if !(x >= q.Lo.X && x <= q.Hi.X) {
			continue
		}
		y := math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
		z := math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
		if y >= q.Lo.Y && y <= q.Hi.Y && z >= q.Lo.Z && z <= q.Hi.Z {
			sel = append(sel, int32(i))
		}
	}
	return sel
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
