// Package binio is spio's one codec for structured bytes: a sticky-error
// little-endian Writer and the Reader that mirrors it op for op. The
// data file and metadata headers, every frame of the serving protocol and
// the small messages ranks exchange during a write are all framed with
// it, in name-paired encodeX/decodeX functions, each pinned by a
// round-trip test over its bytes.
//
// The codec does not know who calls it. What differs between its callers
// is a property of the sink or source they hand it: a checksum is an
// io.Writer/io.Reader that updates one as bytes pass; a sink that can
// send bytes from where they lie is a Lender.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"spio/internal/geom"
)

// Lender is a sink that takes bytes by reference: p goes out from where
// it lies, after everything written so far, and must stay unchanged until
// the sink has been sent.
type Lender interface {
	Lend(p []byte)
}

// Writer is a sticky-error little-endian encoder: after the first failed
// write every operation is a no-op and Err reports that failure.
type Writer struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte // the fixed-width ops' staging, so none allocates
}

// NewWriter returns a Writer encoding into w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error a write met.
func (e *Writer) Err() error { return e.err }

// Bytes writes p as it is, with no length in front.
func (e *Writer) Bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

// Lend puts chunks into the output in order. A sink that is a Lender
// takes them by reference; any other has them written now.
func (e *Writer) Lend(chunks [][]byte) {
	l, lends := e.w.(Lender)
	for _, c := range chunks {
		if e.err != nil {
			return
		}
		if lends {
			l.Lend(c)
		} else {
			e.Bytes(c)
		}
	}
}

func (e *Writer) U8(v uint8) {
	e.buf[0] = v
	e.Bytes(e.buf[:1])
}

func (e *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:], v)
	e.Bytes(e.buf[:4])
}

func (e *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.Bytes(e.buf[:8])
}

func (e *Writer) I64(v int64) { e.U64(uint64(v)) }

func (e *Writer) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Writer) Uvarint(v uint64) {
	e.Bytes(e.buf[:binary.PutUvarint(e.buf[:], v)])
}

// Str writes a string as its uvarint length and its bytes.
func (e *Writer) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Bytes([]byte(s))
}

func (e *Writer) Vec3(v geom.Vec3) {
	e.F64(v.X)
	e.F64(v.Y)
	e.F64(v.Z)
}

func (e *Writer) Box(b geom.Box) {
	e.Vec3(b.Lo)
	e.Vec3(b.Hi)
}

func (e *Writer) Idx3(i geom.Idx3) {
	e.Uvarint(uint64(i.X))
	e.Uvarint(uint64(i.Y))
	e.Uvarint(uint64(i.Z))
}

// Reader is the decoding counterpart of Writer: after the first failure
// every operation returns zero values and Err reports that failure. It
// reads exactly the bytes its operations ask for, never ahead, so N is
// the offset of the next undecoded byte of the source. What it decodes
// is only as trustworthy as the source: a caller reading outside input
// bounds every count before it sizes anything.
type Reader struct {
	r      io.Reader
	prefix string // what this reader's own errors start with: the caller's package
	n      int64
	err    error
	buf    [8]byte
}

// NewReader returns a Reader decoding from r whose errors read
// "<prefix>: ...".
func NewReader(r io.Reader, prefix string) *Reader { return &Reader{r: r, prefix: prefix} }

// Err returns the first error: a read's, or a refusal's (Fail).
func (d *Reader) Err() error { return d.err }

// N returns the number of bytes consumed so far.
func (d *Reader) N() int64 { return d.n }

// Fail makes the message, under the reader's prefix, the reader's error
// unless it already has one: how a decoder refuses a value it has read.
func (d *Reader) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: "+format, append([]any{d.prefix}, args...)...)
	}
}

// Whole is how a decoder ends a message of size bytes held in memory: it
// returns the reader's error, or, if bytes are left behind what was
// decoded, an error saying so. A message is decoded whole or refused.
func (d *Reader) Whole(size int) error {
	if d.err == nil && d.n != int64(size) {
		d.Fail("%d bytes after the %d decoded", int64(size)-d.n, d.n)
	}
	return d.err
}

func (d *Reader) short(err error) {
	d.Fail("short read at offset %d: %w", d.n, err)
}

// Bytes fills p with the next len(p) bytes.
func (d *Reader) Bytes(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.short(err)
		return
	}
	d.n += int64(len(p))
}

// Fill reads the next bytes into the chunks in order, filling each: the
// reading side of Writer.Lend. The caller bounds their total first.
func (d *Reader) Fill(chunks [][]byte) {
	for _, c := range chunks {
		d.Bytes(c)
	}
}

func (d *Reader) U8() uint8 {
	d.Bytes(d.buf[:1])
	if d.err != nil {
		return 0
	}
	return d.buf[0]
}

func (d *Reader) U32() uint32 {
	d.Bytes(d.buf[:4])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:])
}

func (d *Reader) U64() uint64 {
	d.Bytes(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:])
}

func (d *Reader) I64() int64 { return int64(d.U64()) }

func (d *Reader) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Reader) Uvarint() uint64 {
	v, err := binary.ReadUvarint(byteReader{d})
	if err != nil {
		d.Fail("bad varint at offset %d: %w", d.n, err)
	}
	return v
}

// Str reads a string written by Writer.Str, refusing one longer than
// maxLen before allocating it.
func (d *Reader) Str(maxLen uint64) string {
	n := d.Uvarint()
	if n > maxLen {
		d.Fail("string length %d exceeds limit %d", n, maxLen)
		return ""
	}
	b := make([]byte, n)
	d.Bytes(b)
	return string(b)
}

func (d *Reader) Vec3() geom.Vec3 {
	return geom.Vec3{X: d.F64(), Y: d.F64(), Z: d.F64()}
}

func (d *Reader) Box() geom.Box {
	return geom.Box{Lo: d.Vec3(), Hi: d.Vec3()}
}

func (d *Reader) Idx3() geom.Idx3 {
	return geom.Idx3{X: int(d.Uvarint()), Y: int(d.Uvarint()), Z: int(d.Uvarint())}
}

// byteReader adapts Reader for binary.ReadUvarint.
type byteReader struct{ d *Reader }

func (b byteReader) ReadByte() (byte, error) {
	v := b.d.U8()
	return v, b.d.err
}
