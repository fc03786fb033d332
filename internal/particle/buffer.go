package particle

import (
	"fmt"
	"math"

	"spio/internal/geom"
)

// Buffer holds the particles of one rank (or one file) in
// structure-of-arrays form: one flat component slice per field. SoA keeps
// the aggregation algorithm's hot loop — scanning positions to bin
// particles into aggregation partitions — sequential in memory.
type Buffer struct {
	schema *Schema
	n      int
	f64    [][]float64 // one entry per Float64 field, len n*components
	f32    [][]float32 // one entry per Float32 field
	// fieldSlot[i] indexes into f64 or f32 depending on the field's kind.
	fieldSlot []int
}

// NewBuffer returns an empty buffer with capacity hint cap particles.
func NewBuffer(schema *Schema, capHint int) *Buffer {
	if schema == nil {
		panic("particle: nil schema")
	}
	b := &Buffer{schema: schema, fieldSlot: make([]int, schema.NumFields())}
	for i := 0; i < schema.NumFields(); i++ {
		f := schema.Field(i)
		switch f.Kind {
		case Float64:
			b.fieldSlot[i] = len(b.f64)
			b.f64 = append(b.f64, make([]float64, 0, capHint*f.Components))
		case Float32:
			b.fieldSlot[i] = len(b.f32)
			b.f32 = append(b.f32, make([]float32, 0, capHint*f.Components))
		}
	}
	return b
}

// Schema returns the buffer's schema.
func (b *Buffer) Schema() *Schema { return b.schema }

// Len returns the number of particles.
func (b *Buffer) Len() int { return b.n }

// Bytes returns the encoded payload size of the buffer.
func (b *Buffer) Bytes() int64 { return int64(b.n) * int64(b.schema.Stride()) }

// Position returns the position of particle i.
func (b *Buffer) Position(i int) geom.Vec3 {
	p := b.f64[b.fieldSlot[0]]
	return geom.Vec3{X: p[3*i], Y: p[3*i+1], Z: p[3*i+2]}
}

// SetPosition overwrites the position of particle i.
func (b *Buffer) SetPosition(i int, v geom.Vec3) {
	p := b.f64[b.fieldSlot[0]]
	p[3*i], p[3*i+1], p[3*i+2] = v.X, v.Y, v.Z
}

// Float64Field returns the flat component slice of a Float64 field by
// schema index. The slice aliases the buffer; it is valid until the next
// Append.
func (b *Buffer) Float64Field(field int) []float64 {
	f := b.schema.Field(field)
	if f.Kind != Float64 {
		panic(fmt.Sprintf("particle: field %q is %v, not float64", f.Name, f.Kind))
	}
	return b.f64[b.fieldSlot[field]]
}

// Float32Field returns the flat component slice of a Float32 field by
// schema index, aliasing the buffer.
func (b *Buffer) Float32Field(field int) []float32 {
	f := b.schema.Field(field)
	if f.Kind != Float32 {
		panic(fmt.Sprintf("particle: field %q is %v, not float32", f.Name, f.Kind))
	}
	return b.f32[b.fieldSlot[field]]
}

// Append adds one particle given per-field component values. vals must
// have one []float64 per field (Float32 fields are converted); each entry
// must have exactly the field's component count.
func (b *Buffer) Append(vals ...[]float64) {
	if len(vals) != b.schema.NumFields() {
		panic(fmt.Sprintf("particle: Append got %d fields, schema has %d", len(vals), b.schema.NumFields()))
	}
	for i, v := range vals {
		f := b.schema.Field(i)
		if len(v) != f.Components {
			panic(fmt.Sprintf("particle: field %q wants %d components, got %d", f.Name, f.Components, len(v)))
		}
		switch f.Kind {
		case Float64:
			b.f64[b.fieldSlot[i]] = append(b.f64[b.fieldSlot[i]], v...)
		case Float32:
			s := b.f32[b.fieldSlot[i]]
			for _, x := range v {
				s = append(s, float32(x))
			}
			b.f32[b.fieldSlot[i]] = s
		}
	}
	b.n++
}

// AppendFrom copies particle i of src onto the end of b. Schemas must
// match (same pointer or Equal).
func (b *Buffer) AppendFrom(src *Buffer, i int) {
	if b.schema != src.schema && !b.schema.Equal(src.schema) {
		panic("particle: AppendFrom across different schemas")
	}
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		switch f.Kind {
		case Float64:
			s := src.f64[src.fieldSlot[fi]]
			b.f64[b.fieldSlot[fi]] = append(b.f64[b.fieldSlot[fi]], s[i*f.Components:(i+1)*f.Components]...)
		case Float32:
			s := src.f32[src.fieldSlot[fi]]
			b.f32[b.fieldSlot[fi]] = append(b.f32[b.fieldSlot[fi]], s[i*f.Components:(i+1)*f.Components]...)
		}
	}
	b.n++
}

// AppendBuffer copies all particles of src onto the end of b.
func (b *Buffer) AppendBuffer(src *Buffer) {
	if b.schema != src.schema && !b.schema.Equal(src.schema) {
		panic("particle: AppendBuffer across different schemas")
	}
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		switch b.schema.Field(fi).Kind {
		case Float64:
			b.f64[b.fieldSlot[fi]] = append(b.f64[b.fieldSlot[fi]], src.f64[src.fieldSlot[fi]]...)
		case Float32:
			b.f32[b.fieldSlot[fi]] = append(b.f32[b.fieldSlot[fi]], src.f32[src.fieldSlot[fi]]...)
		}
	}
	b.n += src.n
}

// Swap exchanges particles i and j in place. It is the primitive the LOD
// reshuffle is built on (paper Section 3.4: "the particles are reordered
// in-place").
func (b *Buffer) Swap(i, j int) {
	if i == j {
		return
	}
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]]
			for k := 0; k < c; k++ {
				s[i*c+k], s[j*c+k] = s[j*c+k], s[i*c+k]
			}
		case Float32:
			s := b.f32[b.fieldSlot[fi]]
			for k := 0; k < c; k++ {
				s[i*c+k], s[j*c+k] = s[j*c+k], s[i*c+k]
			}
		}
	}
}

// Select returns a new buffer holding the particles at the given indices,
// in order. The copy is columnar — one gather pass per field — rather
// than a per-index AppendFrom walk, so the per-particle schema dispatch
// is hoisted out of the loop.
func (b *Buffer) Select(indices []int) *Buffer {
	out := NewBuffer(b.schema, 0)
	out.SetLen(len(indices))
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		switch f.Kind {
		case Float64:
			gather64(out.f64[out.fieldSlot[fi]], b.f64[b.fieldSlot[fi]], indices, f.Components)
		case Float32:
			gather32(out.f32[out.fieldSlot[fi]], b.f32[b.fieldSlot[fi]], indices, f.Components)
		}
	}
	return out
}

// Slice returns a new buffer holding particles [lo, hi).
func (b *Buffer) Slice(lo, hi int) *Buffer {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("particle: Slice[%d:%d] of %d", lo, hi, b.n))
	}
	out := NewBuffer(b.schema, hi-lo)
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]]
			out.f64[out.fieldSlot[fi]] = append(out.f64[out.fieldSlot[fi]], s[lo*c:hi*c]...)
		case Float32:
			s := b.f32[b.fieldSlot[fi]]
			out.f32[out.fieldSlot[fi]] = append(out.f32[out.fieldSlot[fi]], s[lo*c:hi*c]...)
		}
	}
	out.n = hi - lo
	return out
}

// Bounds returns the closed bounding box of all particle positions, or an
// empty box for an empty buffer. This implements the paper's note that
// the I/O system "can easily compute this information by finding the
// bounding box of the particles on the process". The scan shares the
// plain-comparison min/max kernel with FieldRanges, seeded with the
// EmptyBox sentinels so results are bit-identical to folding Extend.
func (b *Buffer) Bounds() geom.Box {
	box := geom.EmptyBox()
	p := b.f64[b.fieldSlot[0]]
	lo := [3]float64{box.Lo.X, box.Lo.Y, box.Lo.Z}
	hi := [3]float64{box.Hi.X, box.Hi.Y, box.Hi.Z}
	for i := 0; i < b.n; i++ {
		rangeScan(p[3*i], &lo[0], &hi[0])
		rangeScan(p[3*i+1], &lo[1], &hi[1])
		rangeScan(p[3*i+2], &lo[2], &hi[2])
	}
	return geom.Box{
		Lo: geom.Vec3{X: lo[0], Y: lo[1], Z: lo[2]},
		Hi: geom.Vec3{X: hi[0], Y: hi[1], Z: hi[2]},
	}
}

// CheckFinite returns an error naming the first particle whose position
// has a NaN or infinite component. Simulations occasionally produce such
// particles after a blow-up; writing them poisons spatial metadata (a
// NaN never falls inside any partition box).
func (b *Buffer) CheckFinite() error {
	for i := 0; i < b.n; i++ {
		if !b.Position(i).IsFinite() {
			return fmt.Errorf("particle: particle %d has non-finite position %v", i, b.Position(i))
		}
	}
	return nil
}

// CheckInside returns an error naming the first particle outside the
// closed box.
func (b *Buffer) CheckInside(box geom.Box) error {
	for i := 0; i < b.n; i++ {
		if !box.ContainsClosed(b.Position(i)) {
			return fmt.Errorf("particle: particle %d at %v outside %v", i, b.Position(i), box)
		}
	}
	return nil
}

// EncodeRecords appends the AoS record encoding of particles [lo, hi) to
// dst and returns the extended slice. Records are the schema's fields in
// order, components little-endian. It is a thin wrapper over the
// EncodeRecordsInto kernel.
func (b *Buffer) EncodeRecords(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("particle: EncodeRecords[%d:%d] of %d", lo, hi, b.n))
	}
	need := (hi - lo) * b.schema.Stride()
	base := len(dst)
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+need]
	b.EncodeRecordsInto(dst[base:], lo, hi)
	return dst
}

// Encode returns the AoS record encoding of the whole buffer.
func (b *Buffer) Encode() []byte {
	return b.EncodeRecords(make([]byte, 0, b.n*b.schema.Stride()), 0, b.n)
}

// DecodeRecords appends the particles encoded in data (which must be a
// whole number of records) to the buffer. It is a thin wrapper over the
// DecodeRecordsAt kernel: extend the buffer once, decode in place.
func (b *Buffer) DecodeRecords(data []byte) error {
	stride := b.schema.Stride()
	if len(data)%stride != 0 {
		return fmt.Errorf("particle: %d bytes is not a multiple of record size %d", len(data), stride)
	}
	at := b.n
	b.SetLen(at + len(data)/stride)
	return b.DecodeRecordsAt(data, at)
}

// Decode builds a buffer from an AoS record encoding.
func Decode(schema *Schema, data []byte) (*Buffer, error) {
	b := NewBuffer(schema, len(data)/schema.Stride())
	if err := b.DecodeRecords(data); err != nil {
		return nil, err
	}
	return b, nil
}

// Equal reports whether two buffers hold bit-identical particle
// sequences.
func (b *Buffer) Equal(o *Buffer) bool {
	if b.n != o.n || !b.schema.Equal(o.schema) {
		return false
	}
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		switch b.schema.Field(fi).Kind {
		case Float64:
			x, y := b.f64[b.fieldSlot[fi]], o.f64[o.fieldSlot[fi]]
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					return false
				}
			}
		case Float32:
			x, y := b.f32[b.fieldSlot[fi]], o.f32[o.fieldSlot[fi]]
			for i := range x {
				if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
					return false
				}
			}
		}
	}
	return true
}
