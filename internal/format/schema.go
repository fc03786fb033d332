package format

import (
	"hash/crc32"
	"io"

	"spio/internal/binio"
	"spio/internal/particle"
)

// Bounds on a decoded schema, the same for a file header and a frame of
// the serving protocol. Each is checked before the value sizes anything:
// the component count multiplies into every per-record stride and
// per-field allocation downstream. Field count and name length are what
// the file decoder always enforced (the wider of the file's and the
// wire's, so nothing either accepted is refused); the component bound was
// the wire's alone, and every schema a spio writer has produced is far
// inside it (Uintah's widest field has 9).
const (
	maxFields     = 1024
	maxFieldName  = 4096
	maxComponents = 1024
)

// EncodeSchema writes a schema's field list: field count, then name,
// kind and component count per field.
func EncodeSchema(e *binio.Writer, s *particle.Schema) {
	e.Uvarint(uint64(s.NumFields()))
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		e.Str(f.Name)
		e.U8(uint8(f.Kind))
		e.Uvarint(uint64(f.Components))
	}
}

// DecodeSchema reads a field list, refuses one outside the bounds and
// validates the rest — an unknown kind among it — through NewSchema.
func DecodeSchema(d *binio.Reader) (*particle.Schema, error) {
	n := d.Uvarint()
	if d.Err() == nil && (n == 0 || n > maxFields) {
		d.Fail("implausible field count %d", n)
	}
	var fields []particle.Field
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var f particle.Field
		f.Name = d.Str(maxFieldName)
		f.Kind = particle.Kind(d.U8())
		comps := d.Uvarint()
		if comps > maxComponents {
			d.Fail("field with %d components exceeds limit %d", comps, maxComponents)
		}
		f.Components = int(comps)
		fields = append(fields, f)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return particle.NewSchema(fields)
}

// crcReader is the source of a checksummed header: it updates a CRC-32
// with every byte read through it. The codec reads exactly what it
// decodes, so after a header's last field crc covers the header and
// nothing behind it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}
