package particle

import "fmt"

// Projection supports reading only a subset of a dataset's variables —
// visualization typically wants positions (and maybe one scalar), not
// the full 124-byte Uintah record. Records on disk are AoS, so the
// *bytes* still stream in whole; projection saves decode time and, more
// importantly, memory: a position-only projection of a Uintah dataset
// keeps 24 of every 124 bytes.

// Projection maps a source schema onto a subset of its fields.
type Projection struct {
	src *Schema
	sub *Schema
	// srcField[i] is the source-schema index of the i-th projected field.
	srcField []int
	// srcOffset[i] is the byte offset of that field within a source
	// record.
	srcOffset []int
	// wants[fi] reports whether source field fi is projected.
	wants []bool
}

// Project builds a projection keeping the named fields. The position
// field is always included (first), whether or not it is named. Unknown
// names are an error.
func (s *Schema) Project(names []string) (*Projection, error) {
	keep := []int{0} // position always first
	seen := map[int]bool{0: true}
	for _, name := range names {
		fi := s.FieldIndex(name)
		if fi < 0 {
			return nil, fmt.Errorf("particle: schema has no field %q", name)
		}
		if seen[fi] {
			continue
		}
		seen[fi] = true
		keep = append(keep, fi)
	}
	fields := make([]Field, len(keep))
	for i, fi := range keep {
		fields[i] = s.Field(fi)
	}
	sub, err := NewSchema(fields)
	if err != nil {
		return nil, err
	}
	offsets := make([]int, s.NumFields())
	off := 0
	for i := 0; i < s.NumFields(); i++ {
		offsets[i] = off
		off += s.Field(i).Bytes()
	}
	p := &Projection{src: s, sub: sub, srcField: keep, wants: make([]bool, s.NumFields())}
	for _, fi := range keep {
		p.srcOffset = append(p.srcOffset, offsets[fi])
		p.wants[fi] = true
	}
	return p, nil
}

// ProjectOnto is Project for an optional field list, the shape read
// options carry: no names means no projection — nil, whole records.
func (s *Schema) ProjectOnto(names []string) (*Projection, error) {
	if len(names) == 0 {
		return nil, nil
	}
	return s.Project(names)
}

// Source returns the full schema the projection reads from.
func (p *Projection) Source() *Schema { return p.src }

// Schema returns the projected (subset) schema.
func (p *Projection) Schema() *Schema { return p.sub }

// Wants returns, per source-schema field, whether the projection keeps
// it — the mask a field-skipping decode takes. The slice is shared and
// must not be written.
func (p *Projection) Wants() []bool { return p.wants }

// DecodeRecords decodes source-schema records, keeping only the
// projected fields, and appends them to a buffer with the projection's
// schema.
func (p *Projection) DecodeRecords(dst *Buffer, data []byte) error {
	if !dst.Schema().Equal(p.sub) {
		return fmt.Errorf("particle: projection target has schema %v, want %v", dst.Schema(), p.sub)
	}
	if len(data)%p.src.Stride() != 0 {
		return fmt.Errorf("particle: %d bytes is not a multiple of source record size %d", len(data), p.src.Stride())
	}
	at := dst.Len()
	dst.SetLen(at + len(data)/p.src.Stride())
	// Columnar, like the full decode — one strided pass per kept field.
	return dst.decodeRowsAt(data, p.src.Stride(), p.srcOffset, at)
}

// Apply projects an in-memory buffer (full schema) onto the subset.
func (p *Projection) Apply(src *Buffer) (*Buffer, error) {
	if !src.Schema().Equal(p.src) {
		return nil, fmt.Errorf("particle: buffer schema %v does not match projection source %v", src.Schema(), p.src)
	}
	dst := NewBuffer(p.sub, src.Len())
	for k, fi := range p.srcField {
		f := p.src.Field(fi)
		switch f.Kind {
		case Float64:
			dst.f64[dst.fieldSlot[k]] = append(dst.f64[dst.fieldSlot[k]], src.f64[src.fieldSlot[fi]]...)
		case Float32:
			dst.f32[dst.fieldSlot[k]] = append(dst.f32[dst.fieldSlot[k]], src.f32[src.fieldSlot[fi]]...)
		}
	}
	dst.n = src.Len()
	return dst, nil
}
