package particle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spio/internal/geom"
)

// positionRecords encodes one PositionOnly record per point.
func positionRecords(pts []geom.Vec3) []byte {
	b := NewBuffer(PositionOnly(), len(pts))
	for _, p := range pts {
		b.Append([]float64{p.X, p.Y, p.Z})
	}
	return b.Encode()
}

// selectCases are the points and boxes where a rewritten comparison
// could drift from geom.Box.ContainsClosed — which is what the old
// `Contains(p) || ContainsClosed(p)` always evaluated to: each Lo/Hi
// face, one ulp outside each, NaN and ±Inf coordinates, and boxes that
// are empty, inverted, a single point and everything.
func selectCases() ([]geom.Vec3, []geom.Box) {
	q := geom.NewBox(geom.V3(-1, 0.25, 2), geom.V3(1, 0.75, 8))
	mid := q.Center()
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	pts := []geom.Vec3{mid, q.Lo, q.Hi}
	faces := [3][2]float64{{q.Lo.X, q.Hi.X}, {q.Lo.Y, q.Hi.Y}, {q.Lo.Z, q.Hi.Z}}
	for axis, f := range faces {
		for _, c := range []float64{f[0], f[1], down(f[0]), up(f[0]), down(f[1]), up(f[1]),
			math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := [3]float64{mid.X, mid.Y, mid.Z}
			p[axis] = c
			pts = append(pts, geom.V3(p[0], p[1], p[2]))
		}
	}
	pts = append(pts, geom.V3(math.NaN(), math.NaN(), math.NaN()))
	boxes := []geom.Box{
		q,
		geom.EmptyBox(),
		{Lo: q.Hi, Hi: q.Lo}, // inverted: Lo > Hi on every axis
		{Lo: q.Lo, Hi: q.Lo}, // degenerate: the single point Lo
		geom.NewBox(geom.V3(math.Inf(-1), math.Inf(-1), math.Inf(-1)), geom.V3(math.Inf(1), math.Inf(1), math.Inf(1))),
	}
	return pts, boxes
}

// positionPlanes is a block's position column as a byte-plane codec
// inflates it.
func positionPlanes(recs []byte, stride int) []byte {
	count := len(recs) / stride
	planes := make([]byte, 24*count)
	shuffleFromRecords(planes, recs, stride, 0, 8, 3, count)
	return planes
}

// TestSelectClosedIsContainsClosed pins the one containment test of the
// read path, in both its kernels, against geom.Box.ContainsClosed on
// selectCases: the records kernel over the whole record image and the
// planes kernel over blocks of 1 to 17 of the points at every clip [lo,
// hi) of the block, so that both the eight-record body and the tail run
// from every offset. Each appends to what the vector already holds.
func TestSelectClosedIsContainsClosed(t *testing.T) {
	pts, boxes := selectCases()
	for _, p := range pts {
		for _, box := range boxes {
			if (box.Contains(p) || box.ContainsClosed(p)) != box.ContainsClosed(p) {
				t.Fatalf("box %v point %v: the doubled test is not ContainsClosed", box, p)
			}
		}
	}
	recs := positionRecords(pts)
	for _, box := range boxes {
		checkSelection(t, "records kernel", SelectClosed([]int32{-1}, recs, 24, &box), pts, box)
	}
	for n := 1; n <= 17; n++ {
		for first := 0; first+n <= len(pts); first += 7 {
			block := pts[first : first+n]
			recs := positionRecords(block)
			planes := positionPlanes(recs, 24)
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					for _, box := range boxes {
						what := fmt.Sprintf("planes kernel, points %d..%d, rows [%d,%d)", first, first+n, lo, hi)
						checkSelection(t, what, selectPlanes([]int32{-1}, planes, n, lo, hi, &box), block[lo:hi], box)
					}
				}
			}
		}
	}
}

// TestIndexSelectIsContainsClosed holds the index kernel to
// ContainsClosed: over selectCases' points (faces, ulps, ±Inf, NaN) and
// points outside the file's bounds, under bounds that are the points'
// own, smaller than the box, degenerate on one axis, inverted, infinite
// and NaN, for selectCases' boxes and a NaN one, on images of 1, 63, 64,
// 65, 8191, 8192 and 8193 records clipped at either end, both or none.
func TestIndexSelectIsContainsClosed(t *testing.T) {
	cases, boxes := selectCases()
	boxes = append(boxes, geom.Box{Lo: geom.V3(math.NaN(), 0.25, 2), Hi: geom.V3(1, 0.75, 8)})
	q := boxes[0]
	inf, nan := math.Inf(1), math.NaN()
	allBounds := []geom.Box{
		{Lo: geom.V3(-2, 0, 0), Hi: geom.V3(2, 1, 10)},         // the finite points'
		{Lo: geom.V3(-0.5, 0.4, 3), Hi: geom.V3(0.5, 0.6, 5)},  // inside the box: points outside them
		{Lo: geom.V3(-2, 0.5, 0), Hi: geom.V3(2, 0.5, 10)},     // degenerate on y
		{Lo: geom.V3(2, 1, 10), Hi: geom.V3(-2, 0, 0)},         // inverted
		{Lo: geom.V3(-inf, 0, 0), Hi: geom.V3(2, inf, 10)},     // infinite
		{Lo: geom.V3(nan, 0, nan), Hi: geom.V3(2, nan, 10)},    // NaN
		{Lo: geom.V3(-1e308, 0, 0), Hi: geom.V3(1e308, 1, 10)}, // wider than a float64
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 8191, 8192, 8193} {
		pts := make([]geom.Vec3, n)
		for i := range pts {
			if i%3 == 0 {
				pts[i] = cases[(i/3)%len(cases)]
			} else { // around the box, a fifth of it outside every bound above
				pts[i] = geom.V3(q.Lo.X+(r.Float64()*1.4-0.2)*(q.Hi.X-q.Lo.X),
					q.Lo.Y+(r.Float64()*1.4-0.2)*(q.Hi.Y-q.Lo.Y), q.Lo.Z+(r.Float64()*1.4-0.2)*(q.Hi.Z-q.Lo.Z))
			}
		}
		recs := positionRecords(pts)
		clips := [][2]int{{0, n}, {min(1, n), n}, {0, max(n-1, 0)}, {min(65, n), max(n-64, min(65, n))}}
		for _, bounds := range allBounds {
			img := BuildCellIndex(recs, 24, bounds)
			for _, c := range clips {
				lo, hi := c[0], c[1]
				for _, box := range boxes {
					sel := SelectIndexed([]int32{-1}, img, lo, hi, bounds, &box)
					for i := 1; i < len(sel); i++ {
						sel[i] -= int32(lo)
					}
					what := fmt.Sprintf("index kernel, %d records, bounds %v, rows [%d,%d)", n, bounds, lo, hi)
					checkSelection(t, what, sel, pts[lo:hi], box)
				}
			}
		}
	}
}

// TestCellMapIsMonotone pins what the index kernel's pruning rests on:
// along every axis the cell of a coordinate never decreases as the
// coordinate grows — through the bounds' faces, outside them, at ±Inf —
// under any bounds, and is a cell; a NaN is in cell 0.
func TestCellMapIsMonotone(t *testing.T) {
	inf := math.Inf(1)
	vs := []float64{-inf, -1e308, -3, -1, math.Nextafter(-1, -2), -1, -0.999, -0.5, 0, 0.25, 0.5,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 3, 1e308, inf}
	for _, b := range [][2]float64{{-1, 1}, {0, 0.5}, {0.5, 0.5}, {1, -1}, {-inf, 1}, {-1, inf},
		{math.NaN(), 1}, {-1e308, 1e308}, {0, 5e-324}} {
		m := newCellMap(geom.Box{Lo: geom.V3(b[0], b[0], b[0]), Hi: geom.V3(b[1], b[1], b[1])})
		last := 0
		for _, v := range vs {
			c, cy, cz := m.cells(v, v, v)
			if c < last || c >= gridCells || c != cy || c != cz {
				t.Errorf("bounds %v: %v is in cell %d after cell %d", b, v, c, last)
			}
			last = c
		}
		if c, _, _ := m.cells(math.NaN(), 0, 0); c != 0 {
			t.Errorf("bounds %v: NaN is in cell %d", b, c)
		}
	}
}

// checkSelection holds a kernel's selection, appended to the one entry
// -1, to ContainsClosed over pts.
func checkSelection(t *testing.T, what string, sel []int32, pts []geom.Vec3, box geom.Box) {
	t.Helper()
	if len(sel) == 0 || sel[0] != -1 {
		t.Fatalf("%s, box %v: the selection %v does not extend the vector it was given", what, box, sel)
	}
	sel = sel[1:]
	next := 0
	for i, p := range pts {
		want := box.ContainsClosed(p)
		got := next < len(sel) && sel[next] == int32(i)
		if got {
			next++
		}
		if got != want {
			t.Errorf("%s, box %v, point %d %v: selected=%v, ContainsClosed=%v", what, box, i, p, got, want)
		}
	}
	if next != len(sel) {
		t.Errorf("%s, box %v: selection %v is not an increasing list of record indices", what, box, sel)
	}
}

// FuzzSelect holds the three kernels — records, planes and index — and
// geom.Box.ContainsClosed to one selection over any bytes as positions,
// any box, any clip of the block and, for the index, any file bounds
// (the box scaled by s about the origin).
func FuzzSelect(f *testing.F) {
	pts, boxes := selectCases()
	recs := positionRecords(pts)
	for i, box := range boxes {
		f.Add(recs, box.Lo.X, box.Lo.Y, box.Lo.Z, box.Hi.X, box.Hi.Y, box.Hi.Z, uint16(i), uint16(3*i+11), 0.5+float64(i))
	}
	f.Add([]byte{}, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint16(0), uint16(0), 1.0)
	f.Fuzz(func(t *testing.T, data []byte, lx, ly, lz, hx, hy, hz float64, a, b uint16, s float64) {
		count := len(data) / 24
		recs := data[:24*count]
		box := geom.Box{Lo: geom.V3(lx, ly, lz), Hi: geom.V3(hx, hy, hz)}
		bounds := geom.Box{Lo: box.Lo.Mul(s), Hi: box.Hi.Mul(s)}
		lo := int(a) % (count + 1)
		hi := lo + int(b)%(count-lo+1)
		var want []int32
		for i := lo; i < hi; i++ {
			if box.ContainsClosed(PositionAt(recs, 24*i)) {
				want = append(want, int32(i-lo))
			}
		}
		if got := SelectClosed(nil, recs[24*lo:24*hi], 24, &box); !slices.Equal(got, want) {
			t.Fatalf("records kernel, rows [%d,%d) of %d, box %v: %v, ContainsClosed gives %v", lo, hi, count, box, got, want)
		}
		if got := selectPlanes(nil, positionPlanes(recs, 24), count, lo, hi, &box); !slices.Equal(got, want) {
			t.Fatalf("planes kernel, rows [%d,%d) of %d, box %v: %v, ContainsClosed gives %v", lo, hi, count, box, got, want)
		}
		got := SelectIndexed(nil, BuildCellIndex(recs, 24, bounds), lo, hi, bounds, &box)
		for i := range got {
			got[i] -= int32(lo)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("index kernel, rows [%d,%d) of %d, bounds %v, box %v: %v, ContainsClosed gives %v", lo, hi, count, bounds, box, got, want)
		}
	})
}

func TestSplitHalfOpen(t *testing.T) {
	patch := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	pts := []geom.Vec3{
		geom.V3(0, 0, 0),       // on Lo: owned
		geom.V3(0.5, 0.5, 0.5), // inside
		geom.V3(1, 0.5, 0.5),   // on Hi: ghost
		geom.V3(-0.1, 0.5, 0.5),
		geom.V3(0.5, 0.5, math.Nextafter(1, 0)),
	}
	recs := positionRecords(pts)
	sel := []int32{0, 1, 2, 3, 4}
	in, out := splitHalfOpen(sel, recs, 24, patch, nil, nil)
	if len(in) != 3 || in[0] != 0 || in[1] != 1 || in[2] != 4 {
		t.Errorf("owned = %v, want [0 1 4]", in)
	}
	if len(out) != 2 || out[0] != 2 || out[1] != 3 {
		t.Errorf("ghost = %v, want [2 3]", out)
	}
}

// TestCollectorMatchesSelectAndProject checks the gather half of the
// kernel against the column path it replaces: collecting a selection
// (across many staging segments) equals Decode -> Select -> Apply.
func TestCollectorMatchesSelectAndProject(t *testing.T) {
	schema := Uintah()
	n := 3*RowBlock + 17 // several segments, a ragged tail
	src := Uniform(schema, geom.UnitBox(), n, 11, 0)
	recs := src.Encode()
	var sel []int32
	var idx []int
	for i := 0; i < n; i++ {
		if i%3 != 1 {
			sel = append(sel, int32(i))
			idx = append(idx, i)
		}
	}
	for _, names := range [][]string{nil, {PositionField}, {"density"}, {"id", "stress"}, {"stress", "density", "volume", "id", "type"}} {
		var proj *Projection
		want := src.Select(idx)
		if names != nil {
			p, err := schema.Project(names)
			if err != nil {
				t.Fatal(err)
			}
			proj = p
			if want, err = p.Apply(want); err != nil {
				t.Fatal(err)
			}
		}
		c := newCollector(schema, proj)
		// Feed the selection in uneven pieces, as chunks would.
		half := len(recs) / schema.Stride() / 2 * schema.Stride()
		cut := 0
		for cut < len(sel) && int(sel[cut])*schema.Stride() < half {
			cut++
		}
		c.add(recs, schema.Stride(), sel[:cut])
		rebased := make([]int32, 0, len(sel)-cut)
		for _, i := range sel[cut:] {
			rebased = append(rebased, i-int32(half/schema.Stride()))
		}
		c.add(recs[half:], schema.Stride(), rebased)
		if c.kept.Len() != len(sel) {
			t.Fatalf("fields %v: collected %d of %d", names, c.kept.Len(), len(sel))
		}
		got := c.rows().Buffer()
		if !got.Equal(want) {
			t.Errorf("fields %v: collector differs from Select+Apply", names)
		}
		if c.kept.Len() != 0 || !c.rows().Buffer().Equal(NewBuffer(got.Schema(), 0)) {
			t.Errorf("fields %v: collector not reset by rows", names)
		}
		// Every record kept is the same as every record selected.
		c.addAll(recs, schema.Stride())
		all := src
		if proj != nil {
			a, err := proj.Apply(src)
			if err != nil {
				t.Fatal(err)
			}
			all = a
		}
		if !c.rows().Buffer().Equal(all) {
			t.Errorf("fields %v: addAll differs from Apply", names)
		}
	}
}

// TestDecompressFieldsSkipsButValidates pins the field-skipping and the
// row-picking decode: the wanted fields (of the picked rows) come out
// bit-identical to a full decode, skipped fields are left untouched, and
// a frame that a full decode rejects for its structure — unknown codec
// id, a length running past the block, raw length disagreeing with the
// column, a codec on the wrong field kind, trailing bytes — is rejected
// with the same error by a position-only decode and by the decode of a
// block without survivors, wherever in the block the damage sits.
func TestDecompressFieldsSkipsButValidates(t *testing.T) {
	schema, records := testBlock(t, 200, 9)
	const count = 200
	for _, spec := range []Spec{LosslessSpec(schema), FastSpec(schema), LossySpec(schema, 1e-3), {}} {
		comp, err := CompressBlock(schema, spec, records)
		if err != nil {
			t.Fatal(err)
		}
		full, err := DecompressBlock(schema, comp, count)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, schema.NumFields())
		want[0], want[2] = true, true // position + density
		// The same, and over picked rows too, against poisoned images.
		checkPartialDecodes(t, schema, comp, count, full, want, boxLowX)
		got := bytes.Repeat([]byte{0xA5}, len(full))
		if _, err := DecompressPickedInto(schema, comp, count, got, want, 0, count, nil, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			for fi := 0; fi < schema.NumFields(); fi++ {
				lo := i*schema.Stride() + schema.Offset(fi)
				hi := lo + schema.Field(fi).Bytes()
				if want[fi] && !bytes.Equal(got[lo:hi], full[lo:hi]) {
					t.Fatalf("record %d field %d: wanted field differs from the full decode", i, fi)
				}
				if !want[fi] && !bytes.Equal(got[lo:hi], bytes.Repeat([]byte{0xA5}, hi-lo)) {
					t.Fatalf("record %d field %d: skipped field was written", i, fi)
				}
			}
		}
	}

	comp, err := CompressBlock(schema, LosslessSpec(schema), records)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of every field frame's header within the block.
	var heads []int
	for off, fi := 0, 0; fi < schema.NumFields(); fi++ {
		heads = append(heads, off)
		plen, n := binary.Uvarint(comp[off+1:])
		off += 1 + n + int(plen)
	}
	last := heads[len(heads)-1]
	posOnly := make([]bool, schema.NumFields())
	posOnly[0] = true
	hostile := map[string][]byte{
		"unknown codec id in a skipped frame": mutate(comp, func(m []byte) []byte { m[heads[1]] = byte(codecMax) + 1; return m }),
		"length past the block":               mutate(comp, func(m []byte) []byte { return append(m[:last+1], 0xff, 0xff, 0x7f) }),
		"trailing bytes":                      mutate(comp, func(m []byte) []byte { return append(m, 0) }),
		"block ends before the last frame":    mutate(comp, func(m []byte) []byte { return m[:last] }),
		"delta codec on a float32 field":      mutate(comp, func(m []byte) []byte { m[last] = byte(CodecDeltaVarint); return m }),
		"raw id on a compressed-length frame": mutate(comp, func(m []byte) []byte { m[heads[1]] = byte(CodecRaw); return m }),
	}
	dst := make([]byte, count*schema.Stride())
	for name, m := range hostile {
		fullErr := DecompressBlockInto(schema, m, count, dst)
		_, skipErr := DecompressPickedInto(schema, m, count, dst, posOnly, 0, count, nil, nil)
		// A block in which nothing is picked inflates the position alone,
		// like the position-only decode, though every field is wanted.
		_, pickErr := DecompressPickedInto(schema, m, count, dst, nil, 0, count, &boxNothing, nil)
		if fullErr == nil || skipErr == nil || pickErr == nil {
			t.Errorf("%s: full decode err=%v, position-only err=%v, zero-survivor err=%v; all must reject", name, fullErr, skipErr, pickErr)
		} else if fullErr.Error() != skipErr.Error() || fullErr.Error() != pickErr.Error() {
			t.Errorf("%s: full decode says %q, position-only says %q, zero-survivor says %q", name, fullErr, skipErr, pickErr)
		}
	}
}

func mutate(b []byte, fn func([]byte) []byte) []byte {
	return fn(append([]byte(nil), b...))
}
