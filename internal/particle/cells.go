package particle

import (
	"encoding/binary"
	"math"
	"math/bits"

	"spio/internal/geom"
)

// The cell index is the third select kernel. A data file is in LOD order,
// so every part of it is a uniform sample of its bounds and a box read
// has to look at every record it scans; the records kernel reads a whole
// record to test 24 bytes of it. A serving layer that keeps a file's
// bytes in memory can keep, beside them, each chunk's positions grouped
// by the cell of an 8x8x8 grid over the file's bounds (BuildCellIndex).
// A box then tests only the positions in the cells it meets
// (SelectIndexed): the same test, inClosed, through SelectClosed on the
// packed positions, and the same selection, in record order. The index
// is derived from the records and read from memory only; the file stays
// as it is.

// IndexChunkRecords is the number of records one cell index covers: a
// file's index is one image per IndexChunkRecords records.
const IndexChunkRecords = 8192

const (
	gridCells = 8 // cells per axis
	numCells  = gridCells * gridCells * gridCells
	// An image is numCells+1 uint32 cell starts, then the positions by
	// cell (24 bytes each), then their record indices (uint32 each).
	startsBytes = 4 * (numCells + 1)
)

// cellMap is the cell of a coordinate on each axis:
// clamp(floor((v-lo)*scale), 0, gridCells-1), where a NaN counts as 0
// and scale is gridCells/(hi-lo) over the file's bounds, or 0 when that
// is not positive and finite (bounds degenerate, inverted, non-finite or
// wider than a float64 on that axis). Every step is monotone in v, so
// the cells between those of a box's corners hold every record the box
// can pick: records outside the bounds, at ±Inf, or of a file whose
// bounds say nothing fall into the edge cells, or all into cell 0, where
// the box's corners do too — such an axis prunes nothing, and a record
// with a NaN, which no box picks, is in cell 0.
type cellMap struct{ lo, scale geom.Vec3 }

func newCellMap(bounds geom.Box) cellMap {
	scale := func(lo, hi float64) float64 {
		if s := gridCells / (hi - lo); s > 0 && s < math.Inf(1) {
			return s
		}
		return 0
	}
	return cellMap{lo: bounds.Lo, scale: geom.Vec3{
		X: scale(bounds.Lo.X, bounds.Hi.X),
		Y: scale(bounds.Lo.Y, bounds.Hi.Y),
		Z: scale(bounds.Lo.Z, bounds.Hi.Z),
	}}
}

func axisCell(v, lo, scale float64) int {
	f := (v - lo) * scale
	if !(f >= 0) { // negative or NaN
		return 0
	}
	return int(min(f, gridCells-1))
}

// cells returns the cell of (x, y, z) on each axis.
func (m *cellMap) cells(x, y, z float64) (cx, cy, cz int) {
	return axisCell(x, m.lo.X, m.scale.X), axisCell(y, m.lo.Y, m.scale.Y), axisCell(z, m.lo.Z, m.scale.Z)
}

// CellIndexBytes is the size of the cell index of n records.
func CellIndexBytes(n int) int { return startsBytes + 28*n }

// BuildCellIndex returns the cell index of records recs (rows stride
// bytes apart, the position at byte 0 of each) over the cells of bounds:
// the cell starts, the positions grouped by cell — in record order inside
// a cell — and their record indices. It is a counting sort: one pass
// finds and counts the cells, the second places each position.
func BuildCellIndex(recs []byte, stride int, bounds geom.Box) []byte {
	n := len(recs) / stride
	img := make([]byte, CellIndexBytes(n))
	m := newCellMap(bounds)
	var stack [IndexChunkRecords]uint16
	cellOf := stack[:]
	if n > len(stack) {
		cellOf = make([]uint16, n)
	}
	var starts [numCells + 1]uint32
	for i, off := 0, 0; i < n; i, off = i+1, off+stride {
		p := PositionAt(recs, off)
		c := (axisCell(p.Z, m.lo.Z, m.scale.Z)*gridCells+axisCell(p.Y, m.lo.Y, m.scale.Y))*gridCells + axisCell(p.X, m.lo.X, m.scale.X)
		cellOf[i] = uint16(c)
		starts[c+1]++
	}
	for c := 1; c <= numCells; c++ {
		starts[c] += starts[c-1]
	}
	for c, s := range starts {
		binary.LittleEndian.PutUint32(img[4*c:], s)
	}
	pos, idx := img[startsBytes:startsBytes+24*n], img[startsBytes+24*n:]
	for i, off := 0, 0; i < n; i, off = i+1, off+stride {
		c := cellOf[i]
		at := starts[c]
		starts[c]++
		*(*[24]byte)(pos[24*at:]) = *(*[24]byte)(recs[off:])
		binary.LittleEndian.PutUint32(idx[4*at:], uint32(i))
	}
	return img
}

// SelectIndexed is the index kernel: SelectClosed over the records of a
// cell index image (BuildCellIndex over the same bounds), looking only at
// the cells q meets. It appends to sel the index of every record of [lo,
// hi) whose position lies in q, in record order. Each (z, y) row of cells
// the box meets is one SelectClosed over the packed positions of its run
// of cells; the picks are marked in a bitmap of the image's records, and
// the marks inside [lo, hi) are appended in ascending order.
func SelectIndexed(sel []int32, img []byte, lo, hi int, bounds geom.Box, q *geom.Box) []int32 {
	n := int(binary.LittleEndian.Uint32(img[4*numCells:]))
	pos, idx := img[startsBytes:startsBytes+24*n], img[startsBytes+24*n:]
	var stack [IndexChunkRecords / 64]uint64
	marks := stack[:]
	if words := (n + 63) / 64; words > len(stack) {
		marks = make([]uint64, words)
	}
	m := newCellMap(bounds)
	x0, y0, z0 := m.cells(q.Lo.X, q.Lo.Y, q.Lo.Z)
	x1, y1, z1 := m.cells(q.Hi.X, q.Hi.Y, q.Hi.Z)
	if x0 > x1 { // an inverted box meets no run of cells
		z1 = z0 - 1
	}
	at := len(sel)
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			row := (z*gridCells + y) * gridCells
			s := int(binary.LittleEndian.Uint32(img[4*(row+x0):]))
			e := int(binary.LittleEndian.Uint32(img[4*(row+x1+1):]))
			sel = SelectClosed(sel[:at], pos[24*s:24*e], 24, q)
			for _, j := range sel[at:] {
				r := binary.LittleEndian.Uint32(idx[4*(s+int(j)):])
				marks[r/64] |= 1 << (r % 64)
			}
		}
	}
	sel = sel[:at]
	for w := lo / 64; w*64 < hi; w++ {
		word := marks[w]
		if first := w * 64; first < lo {
			word &= ^uint64(0) << (lo - first)
		}
		if last := w*64 + 64; last > hi {
			word &= ^uint64(0) >> (last - hi)
		}
		for ; word != 0; word &= word - 1 {
			sel = append(sel, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return sel
}
