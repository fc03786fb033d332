package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// Wire protocol. Every message travels in a length-prefixed frame:
//
//	frame length u32 | body
//
// The connection opens with a hello (magic + protocol version) from the
// client, acknowledged by a bare OK response header; after that the
// client sends one request frame at a time and reads its one response
// frame. Nothing is negotiated: the version is the contract, and two
// peers of one version speak one wire form. No request outlives its
// response: a progressive read is a sequence of level-range box reads
// (request.Skip), each asked for when the client wants it.
//
// Bodies are encoded with the same sticky-error writer/reader idiom as
// internal/format's binio (little-endian, uvarint lengths), kept in
// deliberately name-paired encode/decode functions so the spiolint
// wiresym analyzer statically checks every pair for width/order/count
// symmetry — the scda position: the wire format is a checkable
// writer/reader pact, not two hand-maintained halves.

const (
	protoMagic   = "SPIOSRV1"
	protoVersion = 6 // v6: rows travel as their record bytes; the hello is magic + version and its ack a bare status
)

// Request op codes.
const (
	opMeta        = 1 // resolve a dataset reference, return its metadata image
	opQueryBox    = 2 // box query (QueryBox / ReadAll via NoFilter)
	opKNN         = 3 // k-nearest-neighbour search
	opHalo        = 4 // patch + ghost-margin read
	opDensityGrid = 5 // approximate density field from a LOD prefix
	opStats       = 7 // server metrics snapshot (JSON)
	opList        = 8 // list mounted dataset references
)

// Response status codes.
const (
	statusOK         = 0
	statusError      = 1 // generic failure; message carries the error
	statusOverloaded = 2 // admission queue full: back off and retry
	statusDraining   = 3 // server shutting down: redial later
	statusBudget     = 4 // response exceeds the per-request byte budget
)

// Decode-side sanity bounds (the frame length bounds total size; these
// bound individual allocations before their bytes arrive).
const (
	maxWireString = 4096
	maxWireFields = 256
	maxWireNames  = 1 << 16
	// maxWireComponents caps a decoded field's component count; it must
	// be checked before the value lands in particle.Field, because the
	// component count multiplies into every per-record stride and
	// per-field allocation downstream.
	maxWireComponents = 1024
)

// Request-parameter bounds, enforced in decodeRequest before the values
// are stored. Each of these sizes an allocation or a fan-out on the
// server before any dataset byte is read (K sizes KNN result buffers,
// Dims sizes the density grid, Levels/Readers size the LOD schedule),
// so an unchecked value is a one-frame denial of service.
const (
	maxReqK        = 1 << 20 // KNN neighbours
	maxReqGridAxis = 1 << 20 // density grid cells per axis
	maxReqCells    = 1 << 22 // density grid cells total (32 MiB of float64)
	maxReqLevels   = 1 << 10 // LOD levels
	maxReqReaders  = 1 << 16 // simulated reader fan-out
	maxReqBase     = 1 << 40 // per-file LOD base override (sizes prefix reads)
)

// Request flag bits (request.Flags).
const (
	// reqFlagRawDensity asks a density-grid op for unscaled per-cell
	// sample counts plus the sampled-particle count, so a gateway can sum
	// shards and scale once against the merged total.
	reqFlagRawDensity uint8 = 1 << 0
)

// writer is a sticky-error little-endian encoder, the wire twin of
// internal/format's binio writer.
type writer struct {
	w   io.Writer
	err error
}

func newWriter(w io.Writer) *writer { return &writer{w: w} }

func (e *writer) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

// lend puts chunks into the frame in order. A frame assembled for a
// vectored write (vecFrame) takes them by reference — they go out from
// where they lie and must stay unchanged until the frame has been
// written; any other sink has them written now.
func (e *writer) lend(chunks [][]byte) {
	f, vectored := e.w.(*vecFrame)
	for _, c := range chunks {
		if e.err != nil {
			return
		}
		if vectored {
			f.lend(c)
		} else {
			e.bytes(c)
		}
	}
}

func (e *writer) u8(v uint8) { e.bytes([]byte{v}) }

func (e *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.bytes(b[:])
}

func (e *writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.bytes(b[:])
}

func (e *writer) i64(v int64) { e.u64(uint64(v)) }

func (e *writer) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	e.bytes(b[:n])
}

func (e *writer) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *writer) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

func (e *writer) vec3(v geom.Vec3) {
	e.f64(v.X)
	e.f64(v.Y)
	e.f64(v.Z)
}

func (e *writer) box(b geom.Box) {
	e.vec3(b.Lo)
	e.vec3(b.Hi)
}

func (e *writer) idx3(i geom.Idx3) {
	e.uvarint(uint64(i.X))
	e.uvarint(uint64(i.Y))
	e.uvarint(uint64(i.Z))
}

// reader is the sticky-error decoding counterpart of writer. It
// decodes bytes that arrived over the network, so every value it
// produces is attacker-controlled until a bound check proves
// otherwise.
//
//spio:untrusted-input
type reader struct {
	r    io.Reader // nil when decoding a frame body held in memory
	body []byte
	n    int64
	err  error
}

func newReader(r io.Reader) *reader { return &reader{r: r} }

// bodyReader decodes a frame body held in memory, which is what lets
// view lend the body's bytes instead of copying them.
func bodyReader(body []byte) *reader { return &reader{body: body} }

// release ends the decoding of a frame body: a pooled body goes back to
// the pool, and nothing view returned may be used afterwards.
func (d *reader) release() {
	putBody(d.body)
	d.body = nil
}

func (d *reader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *reader) short(err error) {
	d.err = fmt.Errorf("spiod: short read at offset %d: %w", d.n, err)
}

func (d *reader) bytes(p []byte) {
	if d.err != nil {
		return
	}
	if d.r == nil {
		rest := d.body[d.n:]
		switch {
		case len(rest) >= len(p):
			copy(p, rest)
			d.n += int64(len(p))
		case len(rest) == 0:
			d.short(io.EOF)
		default:
			d.short(io.ErrUnexpectedEOF)
		}
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.short(err)
		return
	}
	d.n += int64(len(p))
}

// view returns the next n bytes of the frame. Over a body held in memory
// they are lent, not copied: the slice aliases the body and is dead once
// the body is released. n is untrusted; the caller bounds it first.
func (d *reader) view(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if d.r == nil {
		rest := d.body[d.n:]
		if uint64(len(rest)) < n {
			d.short(io.ErrUnexpectedEOF)
			return nil
		}
		d.n += int64(n)
		return rest[:n:n]
	}
	p := make([]byte, n)
	d.bytes(p)
	if d.err != nil {
		return nil
	}
	return p
}

func (d *reader) u8() uint8 {
	var b [1]byte
	d.bytes(b[:])
	return b[0]
}

func (d *reader) u32() uint32 {
	var b [4]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *reader) u64() uint64 {
	var b [8]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *reader) i64() int64 { return int64(d.u64()) }

func (d *reader) uvarint() uint64 {
	v, err := binary.ReadUvarint(wireByteReader{d})
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("spiod: bad varint at offset %d: %w", d.n, err)
	}
	return v
}

func (d *reader) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *reader) str(maxLen uint64) string {
	n := d.uvarint()
	if n > maxLen {
		d.fail(fmt.Errorf("spiod: string length %d exceeds limit %d", n, maxLen))
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	return string(b)
}

func (d *reader) vec3() geom.Vec3 {
	return geom.Vec3{X: d.f64(), Y: d.f64(), Z: d.f64()}
}

func (d *reader) boxv() geom.Box {
	return geom.Box{Lo: d.vec3(), Hi: d.vec3()}
}

func (d *reader) idx3() geom.Idx3 {
	return geom.Idx3{X: int(d.uvarint()), Y: int(d.uvarint()), Z: int(d.uvarint())}
}

// wireByteReader adapts reader for binary.ReadUvarint.
type wireByteReader struct{ d *reader }

func (b wireByteReader) ReadByte() (byte, error) {
	var buf [1]byte
	b.d.bytes(buf[:])
	if b.d.err != nil {
		return 0, b.d.err
	}
	return buf[0], nil
}

// frameBuf accumulates one frame body in memory.
type frameBuf struct{ b []byte }

func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// smallFrame is the body size up to which writeFrame copies prefix and
// body into one buffer, so that any writer sees a single Write.
const smallFrame = 4 << 10

// writeFrame sends one length-prefixed frame in one write: a small frame
// as one buffer, a larger one as a vector — one writev on a socket, the
// pieces in order on a writer that has no vectored write.
func writeFrame(w io.Writer, body []byte) error {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(body)))
	if len(body) <= smallFrame {
		_, err := w.Write(append(prefix[:], body...))
		return err
	}
	v := net.Buffers{prefix[:], body}
	_, err := v.WriteTo(w)
	return err
}

// vecFrame assembles one response frame for a single vectored write.
// What is written to it is copied behind the length prefix; what is lent
// to it — an answer's row segments — is only referenced, and goes out
// from where it lies. An answer's payload is therefore produced once and
// never copied into a frame.
type vecFrame struct {
	head []byte   // length prefix, then every written byte
	cuts []vecCut // the lent chunks, in order
	lent int      // bytes lent
}

// vecCut is one lent chunk: p goes out before head[at:].
type vecCut struct {
	at int
	p  []byte
}

func newVecFrame() *vecFrame { return &vecFrame{head: make([]byte, 4, 512)} }

func (f *vecFrame) Write(p []byte) (int, error) {
	f.head = append(f.head, p...)
	return len(p), nil
}

func (f *vecFrame) lend(p []byte) {
	if len(p) > 0 {
		f.cuts = append(f.cuts, vecCut{len(f.head), p})
		f.lent += len(p)
	}
}

// size returns the length of the frame body.
func (f *vecFrame) size() int { return len(f.head) - 4 + f.lent }

// writeTo sends the frame: one Write when nothing was lent, else one
// vectored write (see writeFrame).
func (f *vecFrame) writeTo(w io.Writer) error {
	binary.LittleEndian.PutUint32(f.head, uint32(f.size()))
	if len(f.cuts) == 0 {
		_, err := w.Write(f.head)
		return err
	}
	v := make(net.Buffers, 0, 2*len(f.cuts)+1)
	at := 0
	for _, c := range f.cuts {
		if c.at > at {
			v = append(v, f.head[at:c.at])
			at = c.at
		}
		v = append(v, c.p)
	}
	if at < len(f.head) {
		v = append(v, f.head[at:])
	}
	_, err := v.WriteTo(w)
	return err
}

// Pooled frame bodies: the response frames a client reads. One capacity
// class, so whatever is in the pool serves whatever asks for it; a body
// too small to be worth tying a class body up, or too large for the
// class, is a plain allocation the collector takes back.
const (
	bodyClass = 4 << 20
	bodySmall = 32 << 10
)

var bodyPool sync.Pool // *[]byte of capacity bodyClass

// getBody returns an n-byte body of unspecified content.
func getBody(n int) []byte {
	if n <= bodySmall || n > bodyClass {
		return make([]byte, n)
	}
	if v, _ := bodyPool.Get().(*[]byte); v != nil {
		return (*v)[:n]
	}
	return make([]byte, n, bodyClass)
}

// putBody returns a body to the pool if it is of the pooled class. The
// caller must not touch it, or anything aliasing it, afterwards.
func putBody(b []byte) {
	if cap(b) == bodyClass {
		bodyPool.Put(&b)
	}
}

// readFrame receives one length-prefixed frame, refusing bodies larger
// than max. The body comes from getBody: a caller that is done with it
// may putBody it.
func readFrame(r io.Reader, max uint32) ([]byte, error) {
	d := newReader(r)
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if n > max {
		return nil, fmt.Errorf("spiod: frame of %d bytes exceeds limit %d", n, max)
	}
	body := getBody(int(n))
	d.bytes(body)
	if d.err != nil {
		putBody(body)
		return nil, d.err
	}
	return body, nil
}

// hello opens every connection: magic, then the protocol version. The
// version is the whole contract — one version, one wire form — so there
// is nothing else to say and nothing to negotiate.
type hello struct {
	Version uint32
}

func encodeHello(e *writer, h *hello) {
	e.bytes([]byte(protoMagic))
	e.u32(h.Version)
}

// decodeHello refuses a version other than its own as soon as it has
// read it, before anything another version may have put behind it: a
// hello of any other shape, older or newer, is answered with the version
// message and not with whatever parsing its tail as ours runs into.
func decodeHello(d *reader) (*hello, error) {
	magic := make([]byte, len(protoMagic))
	d.bytes(magic)
	if d.err == nil && string(magic) != protoMagic {
		return nil, fmt.Errorf("spiod: not a spio serving connection (magic %q)", magic)
	}
	var h hello
	h.Version = d.u32()
	if d.err == nil && h.Version != protoVersion {
		return nil, fmt.Errorf("spiod: protocol version %d not supported (want %d)", h.Version, protoVersion)
	}
	if d.err != nil {
		return nil, d.err
	}
	return &h, nil
}

// request is the flat request record: one op code plus the union of
// every op's parameters, always encoded in full so the stream shape is
// identical for all ops.
type request struct {
	Op      uint8
	Dataset string // dataset reference: name, name@N, name@latest
	Box     geom.Box
	Point   geom.Vec3
	K       int
	Halo    float64
	Dims    geom.Idx3
	// Levels and Skip are the level range [Skip, Levels) of the read
	// (rdr.Options.Levels and SkipLevels).
	Levels  int
	Readers int
	// NoFilter returns whole files without box filtering (ReadAll).
	NoFilter bool
	// Fields projects the result onto the named fields.
	Fields []string
	// Base overrides the per-file LOD level-0 budget (0 = derive from
	// this server's own file count). A gateway passes the merged
	// dataset's base so every shard cuts the same level boundaries.
	Base int64
	// Flags carries the reqFlag* bits.
	Flags uint8
	Skip  int
}

func encodeRequest(e *writer, r *request) {
	e.u8(r.Op)
	e.str(r.Dataset)
	e.box(r.Box)
	e.vec3(r.Point)
	e.uvarint(uint64(r.K))
	e.f64(r.Halo)
	e.idx3(r.Dims)
	e.uvarint(uint64(r.Levels))
	e.uvarint(uint64(r.Readers))
	var nf uint8
	if r.NoFilter {
		nf = 1
	}
	e.u8(nf)
	e.uvarint(uint64(len(r.Fields)))
	for _, f := range r.Fields {
		e.str(f)
	}
	e.uvarint(uint64(r.Base))
	e.u8(r.Flags)
	e.uvarint(uint64(r.Skip))
}

func decodeRequest(d *reader) (*request, error) {
	var r request
	r.Op = d.u8()
	r.Dataset = d.str(maxWireString)
	r.Box = d.boxv()
	r.Point = d.vec3()
	k := d.uvarint()
	if k > maxReqK {
		d.fail(fmt.Errorf("spiod: k=%d exceeds limit %d", k, maxReqK))
	}
	r.K = int(k)
	r.Halo = d.f64()
	dims := d.idx3()
	if dims.X < 0 || dims.X > maxReqGridAxis ||
		dims.Y < 0 || dims.Y > maxReqGridAxis ||
		dims.Z < 0 || dims.Z > maxReqGridAxis ||
		int64(dims.X)*int64(dims.Y)*int64(dims.Z) > maxReqCells {
		d.fail(fmt.Errorf("spiod: grid dims %dx%dx%d exceed limit %d cells", dims.X, dims.Y, dims.Z, maxReqCells))
	}
	r.Dims = dims
	levels := d.uvarint()
	if levels > maxReqLevels {
		d.fail(fmt.Errorf("spiod: levels=%d exceeds limit %d", levels, maxReqLevels))
	}
	r.Levels = int(levels)
	readers := d.uvarint()
	if readers > maxReqReaders {
		d.fail(fmt.Errorf("spiod: readers=%d exceeds limit %d", readers, maxReqReaders))
	}
	r.Readers = int(readers)
	r.NoFilter = d.u8() != 0
	n := d.uvarint()
	if n > maxWireFields {
		d.fail(fmt.Errorf("spiod: %d projected fields exceeds limit %d", n, maxWireFields))
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Fields = append(r.Fields, d.str(maxWireString))
	}
	base := d.uvarint()
	if base > maxReqBase {
		d.fail(fmt.Errorf("spiod: base=%d exceeds limit %d", base, maxReqBase))
	}
	r.Base = int64(base)
	r.Flags = d.u8()
	skip := d.uvarint()
	if skip > maxReqLevels || (levels > 0 && skip >= levels) {
		d.fail(fmt.Errorf("spiod: skip=%d is not below levels=%d (limit %d)", skip, levels, maxReqLevels))
	}
	r.Skip = int(skip)
	if d.err != nil {
		return nil, d.err
	}
	return &r, nil
}

// respHeader opens every response.
type respHeader struct {
	Status uint8
	Msg    string // error text when Status != statusOK
}

func encodeRespHeader(e *writer, h *respHeader) {
	e.u8(h.Status)
	e.str(h.Msg)
}

func decodeRespHeader(d *reader) (*respHeader, error) {
	var h respHeader
	h.Status = d.u8()
	h.Msg = d.str(1 << 20)
	if d.err != nil {
		return nil, d.err
	}
	return &h, nil
}

// wireStats is the per-request I/O telemetry attached to responses.
type wireStats struct {
	Read      rdr.Stats
	QueueWait int64 // nanoseconds spent queued before a worker slot freed
	Service   int64 // nanoseconds of execution on the worker
}

func encodeStats(e *writer, st *wireStats) {
	e.i64(int64(st.Read.FilesOpened))
	e.i64(st.Read.ParticlesRead)
	e.i64(st.Read.BytesRead)
	e.i64(st.Read.ParticlesKept)
	e.i64(st.Read.CacheHits)
	e.i64(st.Read.BytesFromCache)
	e.i64(st.QueueWait)
	e.i64(st.Service)
	var partial uint8
	if st.Read.Partial {
		partial = 1
	}
	e.u8(partial)
}

func decodeStats(d *reader) (*wireStats, error) {
	var st wireStats
	st.Read.FilesOpened = int(d.i64())
	st.Read.ParticlesRead = d.i64()
	st.Read.BytesRead = d.i64()
	st.Read.ParticlesKept = d.i64()
	st.Read.CacheHits = d.i64()
	st.Read.BytesFromCache = d.i64()
	st.QueueWait = d.i64()
	st.Service = d.i64()
	st.Read.Partial = d.u8() != 0
	if d.err != nil {
		return nil, d.err
	}
	return &st, nil
}

// Schema on the wire: field count, then (name, kind, components) per
// field.
func encodeWireSchema(e *writer, s *particle.Schema) {
	e.uvarint(uint64(s.NumFields()))
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		e.str(f.Name)
		e.u8(uint8(f.Kind))
		e.uvarint(uint64(f.Components))
	}
}

func decodeWireSchema(d *reader) (*particle.Schema, error) {
	n := d.uvarint()
	if n > maxWireFields {
		d.fail(fmt.Errorf("spiod: schema with %d fields exceeds limit %d", n, maxWireFields))
	}
	var fields []particle.Field
	for i := uint64(0); i < n && d.err == nil; i++ {
		var f particle.Field
		f.Name = d.str(maxWireString)
		f.Kind = particle.Kind(d.u8())
		comps := d.uvarint()
		if comps > maxWireComponents {
			d.fail(fmt.Errorf("spiod: field with %d components exceeds limit %d", comps, maxWireComponents))
		}
		f.Components = int(comps)
		if d.err == nil && f.Kind.Size() == 0 {
			d.fail(fmt.Errorf("spiod: unknown field kind %d", f.Kind))
		}
		fields = append(fields, f)
	}
	if d.err != nil {
		return nil, d.err
	}
	return particle.NewSchema(fields)
}

// Rows on the wire: schema, record count, then count × stride record
// bytes — the rows themselves, which is exactly the data-file encoding,
// so a level range read whole is bit-identical to the file range it came
// from. There is one form: compression lives in the data file, and what
// shrinks an answer for a slow link is asking for less of it (Fields,
// Levels).
//
// The encoder lends the frame the row segments where they lie; the
// decoder copies the payload out of the frame body it was handed into
// row segments of its own.

func encodeRows(e *writer, rows *particle.Rows) {
	encodeWireSchema(e, rows.Schema())
	e.u64(uint64(rows.Len()))
	e.lend(rows.Segments())
}

// decodeRows decodes an answer's rows, refusing payloads larger than
// limit bytes (the caller's frame bound; the frame is already in memory,
// the limit guards the record-count allocation). The caller owns the
// rows; they do not alias the frame.
func decodeRows(d *reader, limit int64) (*particle.Rows, error) {
	schema, err := decodeWireSchema(d)
	if err != nil {
		return nil, err
	}
	n := d.u64()
	if n > uint64(limit) {
		// Stride is at least the position field, so n records never fit
		// under limit bytes; checking n first keeps size from overflowing.
		d.fail(fmt.Errorf("spiod: buffer of %d records exceeds limit %d bytes", n, limit))
	}
	size := n * uint64(schema.Stride())
	if d.err == nil && size > uint64(limit) {
		d.fail(fmt.Errorf("spiod: buffer payload of %d bytes exceeds limit %d", size, limit))
	}
	if d.err != nil {
		return nil, d.err
	}
	payload := d.view(size)
	if d.err != nil {
		return nil, d.err
	}
	rows := particle.NewRows(schema)
	rows.AppendRecords(payload)
	return rows, nil
}

// Float slices (KNN distances, density grids).
func encodeFloats(e *writer, v []float64) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func decodeFloats(d *reader, limit int) ([]float64, error) {
	n := d.uvarint()
	if n > uint64(limit) {
		d.fail(fmt.Errorf("spiod: float slice of %d exceeds limit %d", n, limit))
	}
	if d.err != nil {
		return nil, d.err
	}
	v := make([]float64, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		v = append(v, d.f64())
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// Opaque byte payloads (metadata images, JSON snapshots).
func encodeBlob(e *writer, b []byte) {
	e.uvarint(uint64(len(b)))
	e.bytes(b)
}

func decodeBlob(d *reader, limit uint64) ([]byte, error) {
	n := d.uvarint()
	if n > limit {
		d.fail(fmt.Errorf("spiod: blob of %d bytes exceeds limit %d", n, limit))
	}
	if d.err != nil {
		return nil, d.err
	}
	b := make([]byte, n)
	d.bytes(b)
	if d.err != nil {
		return nil, d.err
	}
	return b, nil
}

// Name lists (opList).
func encodeNames(e *writer, names []string) {
	e.uvarint(uint64(len(names)))
	for _, n := range names {
		e.str(n)
	}
}

func decodeNames(d *reader) ([]string, error) {
	n := d.uvarint()
	if n > maxWireNames {
		d.fail(fmt.Errorf("spiod: %d names exceeds limit %d", n, maxWireNames))
	}
	var names []string
	for i := uint64(0); i < n && d.err == nil; i++ {
		names = append(names, d.str(maxWireString))
	}
	if d.err != nil {
		return nil, d.err
	}
	return names, nil
}

// queryResp answers opQueryBox. A decoded response's rows are the
// caller's to release, here and in every response below.
type queryResp struct {
	Stats wireStats
	Rows  *particle.Rows
}

func encodeQueryResp(e *writer, r *queryResp) {
	encodeStats(e, &r.Stats)
	encodeRows(e, r.Rows)
}

func decodeQueryResp(d *reader, limit int64) (*queryResp, error) {
	st, err := decodeStats(d)
	if err != nil {
		return nil, err
	}
	rows, err := decodeRows(d, limit)
	if err != nil {
		return nil, err
	}
	return &queryResp{Stats: *st, Rows: rows}, nil
}

// knnResp answers opKNN.
type knnResp struct {
	Stats wireStats
	Rows  *particle.Rows
	Dists []float64
}

func encodeKNNResp(e *writer, r *knnResp) {
	encodeStats(e, &r.Stats)
	encodeRows(e, r.Rows)
	encodeFloats(e, r.Dists)
}

func decodeKNNResp(d *reader, limit int64) (*knnResp, error) {
	st, err := decodeStats(d)
	if err != nil {
		return nil, err
	}
	rows, err := decodeRows(d, limit)
	if err != nil {
		return nil, err
	}
	dists, err := decodeFloats(d, int(limit/8)+1)
	if err != nil {
		rows.Release()
		return nil, err
	}
	return &knnResp{Stats: *st, Rows: rows, Dists: dists}, nil
}

// haloResp answers opHalo: the owned and ghost particles separately.
type haloResp struct {
	Stats wireStats
	Own   *particle.Rows
	Ghost *particle.Rows
}

func encodeHaloResp(e *writer, r *haloResp) {
	encodeStats(e, &r.Stats)
	encodeRows(e, r.Own)
	encodeRows(e, r.Ghost)
}

func decodeHaloResp(d *reader, limit int64) (*haloResp, error) {
	st, err := decodeStats(d)
	if err != nil {
		return nil, err
	}
	own, err := decodeRows(d, limit)
	if err != nil {
		return nil, err
	}
	ghost, err := decodeRows(d, limit)
	if err != nil {
		own.Release()
		return nil, err
	}
	return &haloResp{Stats: *st, Own: own, Ghost: ghost}, nil
}

// densityResp answers opDensityGrid. For a raw request
// (reqFlagRawDensity) Counts are unscaled per-cell sample counts,
// Fraction is 1, and Sampled is the number of particles sampled — the
// inputs a gateway needs to sum shards and scale once against the
// merged total.
type densityResp struct {
	Stats    wireStats
	Counts   []float64
	Fraction float64
	Sampled  int64
}

func encodeDensityResp(e *writer, r *densityResp) {
	encodeStats(e, &r.Stats)
	encodeFloats(e, r.Counts)
	e.f64(r.Fraction)
	e.i64(r.Sampled)
}

func decodeDensityResp(d *reader, limit int64) (*densityResp, error) {
	st, err := decodeStats(d)
	if err != nil {
		return nil, err
	}
	counts, err := decodeFloats(d, int(limit/8)+1)
	if err != nil {
		return nil, err
	}
	frac := d.f64()
	sampled := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	return &densityResp{Stats: *st, Counts: counts, Fraction: frac, Sampled: sampled}, nil
}
