package particle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"spio/internal/geom"
)

// The fused filter kernel of the read path. A box query looks at every
// record of every intersecting file and keeps a small fraction of them,
// so what it does with the rest is the cost. These kernels work on the
// AoS record chunks a format.DataFile scan hands out: the box is tested
// on the position bytes in place (the position is field 0, so it sits at
// byte 0 of every record), the survivors of a chunk are named by a
// selection vector, and only they — and only the projected fields — are
// copied out. Nothing is decoded for a record that is thrown away.
//
// BoxFilter and HaloFilter are the kernel as the readers use it — a scan
// callback plus the result; Filler is its unfiltered sibling for reads
// whose size is known up front.

// BoxFilter is the scan callback of a box query: it keeps the records
// whose position lies in the closed box, projected onto proj's fields.
type BoxFilter struct {
	q      geom.Box
	stride int
	sel    []int32
	kept   *collector
}

// NewBoxFilter returns a filter over records of schema src keeping the
// fields of proj (nil keeps whole records).
func NewBoxFilter(src *Schema, proj *Projection, q geom.Box) *BoxFilter {
	return &BoxFilter{q: q, stride: src.Stride(), kept: newCollector(src, proj)}
}

// Chunk filters one chunk of AoS records.
func (f *BoxFilter) Chunk(recs []byte) error {
	f.sel = selectClosed(f.sel[:0], recs, f.stride, f.q)
	f.kept.add(recs, f.stride, f.sel)
	return nil
}

// Buffer returns the records kept so far, in the order they were seen,
// in columns allocated once at their exact size, and resets the filter.
func (f *BoxFilter) Buffer() *Buffer { return f.kept.buffer() }

// HaloFilter is the scan callback of a halo read: one pass keeps the
// records inside the closed grown box and splits them into those the
// half-open patch owns and the ghosts around it.
type HaloFilter struct {
	grown, patch geom.Box
	stride       int
	sel, rest    []int32
	own, ghosts  *collector
}

// NewHaloFilter returns a filter over records of schema src keeping the
// fields of proj (nil keeps whole records).
func NewHaloFilter(src *Schema, proj *Projection, grown, patch geom.Box) *HaloFilter {
	return &HaloFilter{grown: grown, patch: patch, stride: src.Stride(),
		own: newCollector(src, proj), ghosts: newCollector(src, proj)}
}

// Chunk filters one chunk of AoS records.
func (f *HaloFilter) Chunk(recs []byte) error {
	f.sel = selectClosed(f.sel[:0], recs, f.stride, f.grown)
	f.sel, f.rest = splitHalfOpen(f.sel, recs, f.stride, f.patch, f.rest[:0])
	f.own.add(recs, f.stride, f.sel)
	f.ghosts.add(recs, f.stride, f.rest)
	return nil
}

// Buffers returns the owned and the ghost records and resets the filter.
func (f *HaloFilter) Buffers() (own, ghost *Buffer) { return f.own.buffer(), f.ghosts.buffer() }

// Filler is the scan callback of an unfiltered read whose record count
// is known before the first chunk arrives (from headers or metadata):
// the result is allocated once, at that size, and every chunk decodes
// straight into place.
type Filler struct {
	out    *Buffer
	proj   *Projection // nil: whole records
	stride int         // source record bytes
	at     int         // particles filled so far
}

// NewFiller returns a filler for n records of schema src, keeping the
// fields of proj (nil keeps whole records).
func NewFiller(src *Schema, proj *Projection, n int) *Filler {
	schema := src
	if proj != nil {
		schema = proj.sub
	}
	// SetLen, not NewBufferOverwrite: a read result is never Recycled, so
	// drawing its columns from the recycle pools would only drain what
	// the write path put there.
	out := NewBuffer(schema, 0)
	out.SetLen(n)
	return &Filler{out: out, proj: proj, stride: src.Stride()}
}

// Chunk decodes one chunk of AoS records after the ones before it. It
// fails if the chunks run past the size the filler was made for.
func (f *Filler) Chunk(recs []byte) error {
	var err error
	if f.proj != nil {
		err = f.proj.DecodeRecordsAt(f.out, recs, f.at)
	} else {
		err = f.out.DecodeRecordsAt(recs, f.at)
	}
	f.at += len(recs) / f.stride
	return err
}

// Buffer returns the filled buffer. It fails if the chunks did not add
// up to the size the filler was made for: what the sizes were taken from
// disagrees with the records that were there.
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
// selected records inside [Lo, Hi) stay in sel (compacted in place,
// order kept), the others are appended to rest.
func splitHalfOpen(sel []int32, recs []byte, stride int, box geom.Box, rest []int32) (in, out []int32) {
	in = sel[:0]
	for _, i := range sel {
		if box.Contains(PositionAt(recs, int(i)*stride)) {
			in = append(in, i)
		} else {
			rest = append(rest, i)
		}
	}
	return in, rest
}

// collectorSegBytes sizes the staging segments of a collector. Segments
// are pooled and all the same size, so a query's staging costs no
// allocation in steady state whatever its answer size.
const collectorSegBytes = 256 << 10

var collectorSegPool sync.Pool // *[]byte of collectorSegBytes

// collector accumulates the records a scan keeps. The number of
// survivors is not known until the last chunk has been filtered, and the
// chunks are recycled under the scan, so kept records are first copied —
// projected fields only — as compact AoS rows of the output schema into
// pooled fixed-size segments; buffer then allocates the output columns
// once, at the exact size, and decodes the segments into them with the
// dense column kernel. The staging copy touches survivors only.
type collector struct {
	schema *Schema // output schema
	spans  []span  // byte ranges of a source record that form an output row
	stride int     // output row bytes
	perSeg int     // rows per segment
	segs   [][]byte
	n      int
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
	c.perSeg = max(collectorSegBytes/c.stride, 1)
	return c
}

// add copies the selected records of recs (source-schema rows stride
// bytes apart) into the collector, in selection order.
func (c *collector) add(recs []byte, stride int, sel []int32) {
	for len(sel) > 0 {
		if c.n == len(c.segs)*c.perSeg {
			c.segs = append(c.segs, getSeg(c.perSeg*c.stride))
		}
		used := c.n % c.perSeg
		take := min(len(sel), c.perSeg-used)
		dst := c.segs[len(c.segs)-1][used*c.stride:]
		for j, i := range sel[:take] {
			row, d := recs[int(i)*stride:], dst[j*c.stride:]
			for _, sp := range c.spans {
				copy(d[:sp.n], row[sp.off:sp.off+sp.n])
				d = d[sp.n:]
			}
		}
		c.n += take
		sel = sel[take:]
	}
}

// buffer decodes the collected records into a buffer of exactly that
// many particles, returns the staging segments to the pool and resets
// the collector.
func (c *collector) buffer() *Buffer {
	// SetLen, not NewBufferOverwrite: see NewFiller.
	out := NewBuffer(c.schema, 0)
	out.SetLen(c.n)
	for si, seg := range c.segs {
		at := si * c.perSeg
		rows := min(c.perSeg, c.n-at)
		// Segment rows are whole output-schema records inside out's range.
		_ = out.DecodeRecordsAt(seg[:rows*c.stride], at)
		collectorSegPool.Put(&seg)
	}
	c.segs, c.n = nil, 0
	return out
}

func getSeg(n int) []byte {
	if v, _ := collectorSegPool.Get().(*[]byte); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]byte, n, max(n, collectorSegBytes))
}
