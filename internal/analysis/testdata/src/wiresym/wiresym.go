// Fixture for the wiresym analyzer: a writer/reader pair matched by
// name convention must perform the same ordered sequence of fixed-width
// field operations. The local writer/reader types mirror the sticky
// pair in internal/binio.
package wiresym

type writer struct {
	b []byte
}

func newWriter(b *writer) *writer { return b }

func (w *writer) u8(v uint8)       { w.b = append(w.b, v) }
func (w *writer) u32(v uint32)     { _ = v }
func (w *writer) u64(v uint64)     { _ = v }
func (w *writer) uvarint(v uint64) { _ = v }
func (w *writer) str(s string)     { _ = s }
func (w *writer) bytes(p []byte)   { w.b = append(w.b, p...) }

type reader struct {
	b []byte
}

func (r *reader) u8() uint8       { return 0 }
func (r *reader) u32() uint32     { return 0 }
func (r *reader) u64() uint64     { return 0 }
func (r *reader) uvarint() uint64 { return 0 }
func (r *reader) str() string     { return "" }
func (r *reader) bytes(p []byte)  { _ = p }

// A symmetric pair: same widths, same order, branch shapes that factor
// to the same canonical stream. No finding.
func encodeGood(w *writer, vals []uint32) {
	w.bytes([]byte("SPIO"))
	w.u32(1)
	if len(vals) > 0 {
		w.u8(1)
		for _, v := range vals {
			w.u32(v)
		}
	} else {
		w.u8(0)
	}
	w.str("trailer")
}

func decodeGood(r *reader) []uint32 {
	magic := make([]byte, 4)
	r.bytes(magic)
	_ = r.u32()
	var vals []uint32
	if r.u8() != 0 {
		for i := 0; i < 3; i++ {
			vals = append(vals, r.u32())
		}
	}
	_ = r.str()
	return vals
}

// Width mismatch: the writer emits a u64 where the reader consumes a
// u32 — the classic silent-truncation corruption.
func encodeWidth(w *writer) {
	w.u32(7)
	w.u64(9) // want "writer emits u64, reader consumes u32"
}

func decodeWidth(r *reader) {
	_ = r.u32()
	_ = r.u32()
}

// Count mismatch: the writer emits a trailing flag byte the reader
// never consumes, shifting every later record.
func WriteTrailer(w *writer) {
	w.u32(3)
	w.u8(1) // want "first unread field is u8"
}

func ReadTrailer(r *reader) {
	_ = r.u32()
}

// Interprocedural: the asymmetric field hides inside a helper the
// writer splices in; the diagnostic lands on the splice site.
func writeNestedBody(w *writer) {
	w.u64(11)
}

func writeNested(w *writer) {
	w.u32(5)
	writeNestedBody(w) // want "writer emits u64, reader consumes uvarint"
}

func readNested(r *reader) {
	_ = r.u32()
	_ = r.uvarint()
}
