// What this package decodes arrived over the network (a request at the
// server, a response at a client or a gateway), so every value read from
// a frame is attacker-controlled until a bound check proves otherwise.
// The marker makes binio.Reader's methods, called here, wiretaint's roots.
//
//spio:untrusted-input
package server

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"spio/internal/binio"
	"spio/internal/format"
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
// (rdr.Options.SkipLevels), each asked for when the client wants it.
//
// Bodies are framed with internal/binio, the codec of the file headers
// (little-endian, uvarint lengths), in deliberately name-paired
// encode/decode functions so the spiolint wiresym analyzer statically
// checks every pair for width/order/count symmetry — the scda position:
// the wire format is a checkable writer/reader pact, not two
// hand-maintained halves. A schema travels as it is stored
// (format.EncodeSchema), under the bounds a file's is held to.

const (
	protoMagic   = "SPIOSRV1"
	protoVersion = 6 // v6: rows travel as their record bytes; the hello is magic + version and its ack a bare status
)

// Request op codes the Front answers itself; codes 2 to 5 are the query
// ops a Dataset answers (rdr.OpQueryBox … rdr.OpDensityGrid).
const (
	opMeta  = 1 // resolve a dataset reference, return its metadata image
	opStats = 7 // server metrics snapshot (JSON)
	opList  = 8 // list mounted dataset references
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

// frameBody is a frame body held in memory, the source its decoder reads:
// being in memory it can lend its bytes (binio.Viewer) instead of copying
// them out.
type frameBody struct {
	b  []byte
	at int
}

func (f *frameBody) Read(p []byte) (int, error) {
	if f.at == len(f.b) && len(p) > 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b[f.at:])
	f.at += n
	return n, nil
}

func (f *frameBody) View(n int) ([]byte, error) {
	rest := f.b[f.at:]
	if len(rest) < n {
		return nil, io.ErrUnexpectedEOF
	}
	f.at += n
	return rest[:n:n], nil
}

// frameReader decodes a frame body held in memory.
type frameReader struct {
	*binio.Reader
	src frameBody
}

func bodyReader(body []byte) *frameReader {
	f := &frameReader{src: frameBody{b: body}}
	f.Reader = binio.NewReader(&f.src, "spiod")
	return f
}

// release ends the decoding of a frame body: a pooled body goes back to
// the pool, and nothing View returned may be used afterwards.
func (f *frameReader) release() {
	putBody(f.src.b)
	f.src.b = nil
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

// Lend makes vecFrame a binio.Lender.
func (f *vecFrame) Lend(p []byte) {
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
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, fmt.Errorf("spiod: short read at offset 0: %w", err)
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > max {
		return nil, fmt.Errorf("spiod: frame of %d bytes exceeds limit %d", n, max)
	}
	body := getBody(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		putBody(body)
		return nil, fmt.Errorf("spiod: short read at offset 4: %w", err)
	}
	return body, nil
}

// hello opens every connection: magic, then the protocol version. The
// version is the whole contract — one version, one wire form — so there
// is nothing else to say and nothing to negotiate.
type hello struct {
	Version uint32
}

func encodeHello(e *binio.Writer, h *hello) {
	e.Bytes([]byte(protoMagic))
	e.U32(h.Version)
}

// decodeHello refuses a version other than its own as soon as it has
// read it, before anything another version may have put behind it: a
// hello of any other shape, older or newer, is answered with the version
// message and not with whatever parsing its tail as ours runs into.
func decodeHello(d *binio.Reader) (*hello, error) {
	magic := make([]byte, len(protoMagic))
	d.Bytes(magic)
	if d.Err() == nil && string(magic) != protoMagic {
		return nil, fmt.Errorf("spiod: not a spio serving connection (magic %q)", magic)
	}
	var h hello
	h.Version = d.U32()
	if d.Err() == nil && h.Version != protoVersion {
		return nil, fmt.Errorf("spiod: protocol version %d not supported (want %d)", h.Version, protoVersion)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &h, nil
}

// A request frame is the flat record of an rdr.Request — one op code plus
// the union of every op's parameters, always encoded in full so the
// stream shape is identical for all ops — with the reference of the
// dataset it asks ("name", "name@N", "name@latest") after the op code.
// The reference is the wire's: the Front resolves it to the Dataset the
// request is then handed to.

func encodeRequest(e *binio.Writer, ref string, r *rdr.Request) {
	e.U8(r.Op)
	e.Str(ref)
	e.Box(r.Box)
	e.Vec3(r.Point)
	e.Uvarint(uint64(r.K))
	e.F64(r.Halo)
	e.Idx3(r.Dims)
	e.Uvarint(uint64(r.Levels))
	e.Uvarint(uint64(r.Readers))
	var nf uint8
	if r.NoFilter {
		nf = 1
	}
	e.U8(nf)
	e.Uvarint(uint64(len(r.Fields)))
	for _, f := range r.Fields {
		e.Str(f)
	}
	e.Uvarint(uint64(r.PerFileBase))
	e.U8(r.Flags)
	e.Uvarint(uint64(r.SkipLevels))
}

func decodeRequest(d *binio.Reader) (string, *rdr.Request, error) {
	var r rdr.Request
	r.Op = d.U8()
	ref := d.Str(maxWireString)
	r.Box = d.Box()
	r.Point = d.Vec3()
	k := d.Uvarint()
	if k > maxReqK {
		d.Fail("k=%d exceeds limit %d", k, maxReqK)
	}
	r.K = int(k)
	r.Halo = d.F64()
	dims := d.Idx3()
	if dims.X < 0 || dims.X > maxReqGridAxis ||
		dims.Y < 0 || dims.Y > maxReqGridAxis ||
		dims.Z < 0 || dims.Z > maxReqGridAxis ||
		int64(dims.X)*int64(dims.Y)*int64(dims.Z) > maxReqCells {
		d.Fail("grid dims %dx%dx%d exceed limit %d cells", dims.X, dims.Y, dims.Z, maxReqCells)
	}
	r.Dims = dims
	levels := d.Uvarint()
	if levels > maxReqLevels {
		d.Fail("levels=%d exceeds limit %d", levels, maxReqLevels)
	}
	r.Levels = int(levels)
	readers := d.Uvarint()
	if readers > maxReqReaders {
		d.Fail("readers=%d exceeds limit %d", readers, maxReqReaders)
	}
	r.Readers = int(readers)
	r.NoFilter = d.U8() != 0
	n := d.Uvarint()
	if n > maxWireFields {
		d.Fail("%d projected fields exceeds limit %d", n, maxWireFields)
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		r.Fields = append(r.Fields, d.Str(maxWireString))
	}
	base := d.Uvarint()
	if base > maxReqBase {
		d.Fail("base=%d exceeds limit %d", base, maxReqBase)
	}
	r.PerFileBase = int64(base)
	r.Flags = d.U8()
	skip := d.Uvarint()
	if skip > maxReqLevels || (levels > 0 && skip >= levels) {
		d.Fail("skip=%d is not below levels=%d (limit %d)", skip, levels, maxReqLevels)
	}
	r.SkipLevels = int(skip)
	if d.Err() != nil {
		return "", nil, d.Err()
	}
	return ref, &r, nil
}

// respHeader opens every response.
type respHeader struct {
	Status uint8
	Msg    string // error text when Status != statusOK
}

func encodeRespHeader(e *binio.Writer, h *respHeader) {
	e.U8(h.Status)
	e.Str(h.Msg)
}

func decodeRespHeader(d *binio.Reader) (*respHeader, error) {
	var h respHeader
	h.Status = d.U8()
	h.Msg = d.Str(1 << 20)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &h, nil
}

// wireStats is the per-request I/O telemetry attached to responses.
type wireStats struct {
	Read      rdr.Stats
	QueueWait int64 // nanoseconds spent queued before a worker slot freed
	Service   int64 // nanoseconds of execution on the worker
}

func encodeStats(e *binio.Writer, st *wireStats) {
	e.I64(int64(st.Read.FilesOpened))
	e.I64(st.Read.ParticlesRead)
	e.I64(st.Read.BytesRead)
	e.I64(st.Read.ParticlesKept)
	e.I64(st.Read.CacheHits)
	e.I64(st.Read.BytesFromCache)
	e.I64(st.QueueWait)
	e.I64(st.Service)
	var partial uint8
	if st.Read.Partial {
		partial = 1
	}
	e.U8(partial)
}

func decodeStats(d *binio.Reader) (*wireStats, error) {
	var st wireStats
	st.Read.FilesOpened = int(d.I64())
	st.Read.ParticlesRead = d.I64()
	st.Read.BytesRead = d.I64()
	st.Read.ParticlesKept = d.I64()
	st.Read.CacheHits = d.I64()
	st.Read.BytesFromCache = d.I64()
	st.QueueWait = d.I64()
	st.Service = d.I64()
	st.Read.Partial = d.U8() != 0
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &st, nil
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

func encodeRows(e *binio.Writer, rows *particle.Rows) {
	format.EncodeSchema(e, rows.Schema())
	e.U64(uint64(rows.Len()))
	e.Lend(rows.Segments())
}

// decodeRows decodes an answer's rows, refusing payloads larger than
// limit bytes (the caller's frame bound; the frame is already in memory,
// the limit guards the record-count allocation). The caller owns the
// rows; they do not alias the frame.
func decodeRows(d *binio.Reader, limit int64) (*particle.Rows, error) {
	schema, err := format.DecodeSchema(d)
	if err != nil {
		return nil, err
	}
	n := d.U64()
	if n > uint64(limit) {
		// Stride is at least the position field, so n records never fit
		// under limit bytes; checking n first keeps size from overflowing.
		d.Fail("buffer of %d records exceeds limit %d bytes", n, limit)
	}
	size := n * uint64(schema.Stride())
	if d.Err() == nil && size > uint64(limit) {
		d.Fail("buffer payload of %d bytes exceeds limit %d", size, limit)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	payload := d.View(size)
	if d.Err() != nil {
		return nil, d.Err()
	}
	rows := particle.NewRows(schema)
	rows.AppendRecords(payload)
	return rows, nil
}

// Float slices (KNN distances, density grids).
func encodeFloats(e *binio.Writer, v []float64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

func decodeFloats(d *binio.Reader, limit int) ([]float64, error) {
	n := d.Uvarint()
	if n > uint64(limit) {
		d.Fail("float slice of %d exceeds limit %d", n, limit)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	v := make([]float64, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		v = append(v, d.F64())
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return v, nil
}

// Opaque byte payloads (metadata images, JSON snapshots).
func encodeBlob(e *binio.Writer, b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Bytes(b)
}

func decodeBlob(d *binio.Reader, limit uint64) ([]byte, error) {
	n := d.Uvarint()
	if n > limit {
		d.Fail("blob of %d bytes exceeds limit %d", n, limit)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	b := make([]byte, n)
	d.Bytes(b)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return b, nil
}

// Name lists (opList).
func encodeNames(e *binio.Writer, names []string) {
	e.Uvarint(uint64(len(names)))
	for _, n := range names {
		e.Str(n)
	}
}

func decodeNames(d *binio.Reader) ([]string, error) {
	n := d.Uvarint()
	if n > maxWireNames {
		d.Fail("%d names exceeds limit %d", n, maxWireNames)
	}
	var names []string
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		names = append(names, d.Str(maxWireString))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return names, nil
}

// A query op's response is its answer's parts after the stats: a box
// read's rows; a KNN's rows and distances; a halo's owned rows and ghost
// rows; a density grid's counts, sampling fraction and sampled count.
// A response frame does not name its op: the decoder is told the op of
// the request it answers. A decoded answer's rows are the caller's to
// release.

func encodeAnswer(e *binio.Writer, op uint8, st *wireStats, a *rdr.Answer) {
	encodeStats(e, st)
	switch op {
	case rdr.OpQueryBox:
		encodeRows(e, a.Rows)
	case rdr.OpKNN:
		encodeRows(e, a.Rows)
		encodeFloats(e, a.Floats)
	case rdr.OpHalo:
		encodeRows(e, a.Rows)
		encodeRows(e, a.Ghost)
	case rdr.OpDensityGrid:
		encodeFloats(e, a.Floats)
		e.F64(a.Fraction)
		e.I64(a.Sampled)
	}
}

// decodeAnswer keeps the read stats of the answer's wireStats: the queue
// and service times are the server's, for its metrics. It decodes into
// locals and builds the Answer once, as a literal — wiretaint taints a
// field class globally on a field store, and an answer's fields are read
// far from here.
func decodeAnswer(d *binio.Reader, op uint8, limit int64) (*rdr.Answer, error) {
	st, err := decodeStats(d)
	if err != nil {
		return nil, err
	}
	var (
		rows, ghost *particle.Rows
		floats      []float64
		frac        float64
		sampled     int64
		err2        error
	)
	switch op {
	case rdr.OpQueryBox:
		rows, err = decodeRows(d, limit)
	case rdr.OpKNN:
		rows, err = decodeRows(d, limit)
		floats, err2 = decodeFloats(d, int(limit/8)+1)
	case rdr.OpHalo:
		rows, err = decodeRows(d, limit)
		ghost, err2 = decodeRows(d, limit)
	case rdr.OpDensityGrid:
		floats, err = decodeFloats(d, int(limit/8)+1)
		frac = d.F64()
		sampled = d.I64()
	}
	if err = cmp.Or(err, err2, d.Err()); err != nil {
		rows.Release()
		ghost.Release()
		return nil, err
	}
	return &rdr.Answer{Stats: st.Read, Rows: rows, Ghost: ghost, Floats: floats, Fraction: frac, Sampled: sampled}, nil
}
