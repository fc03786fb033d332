// What this package decodes arrived over the network (a request at the
// server, a response at a client or a gateway), so every value read from
// a frame is attacker-controlled until a bound check proves otherwise.
package server

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"net"

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
// (little-endian, uvarint lengths), in name-paired encode/decode
// functions that the round-trip tests pin over the real bytes — the scda
// position: the wire format is a writer/reader pact checked from the
// bytes alone, not two hand-maintained halves. A schema travels as it is stored
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

// frameIn reads the frames of one connection, each decoded as its bytes
// arrive. The length prefix is checked against the caller's bound before
// a byte of the body is read; the body is read through a small buffer over
// the connection limited to it, so no decoder reads past its frame, and a
// row payload too large for the buffer bypasses it into the row segments
// that carry it (decodeRows). A frame ends decoded whole, or refused and
// the rest of it read and dropped: the stream stays in step unless the
// transport failed.
type frameIn struct {
	body io.LimitedReader // the connection, limited to the rest of the frame
	buf  *bufio.Reader    // over body
	d    binio.Reader     // over buf, one frame's
	cut  bool             // the transport failed: the stream is out of step
}

func newFrameIn(conn io.Reader) *frameIn {
	f := &frameIn{body: io.LimitedReader{R: conn}}
	f.buf = bufio.NewReaderSize(&f.body, 4<<10)
	return f
}

// read reads one frame of at most max bytes, handing decode the reader of
// its body and the body's size. A frame that decode does not consume whole
// is refused as "N bytes after the <what>". It returns decode's error or
// the refusal, with the frame skipped, or a transport failure, which sets
// cut: the connection must carry no further frame.
func (f *frameIn) read(max int64, what string, decode func(d *binio.Reader, size int64) error) error {
	var prefix [4]byte
	if _, err := io.ReadFull(f.body.R, prefix[:]); err != nil {
		f.cut = true
		return fmt.Errorf("spiod: short read at offset 0: %w", err)
	}
	size := int64(binary.LittleEndian.Uint32(prefix[:]))
	if size > max {
		f.cut = true
		return fmt.Errorf("spiod: frame of %d bytes exceeds limit %d", size, max)
	}
	f.body.N = size
	f.buf.Reset(&f.body)
	f.d = *binio.NewReader(f.buf, "spiod")
	err := decode(&f.d, size)
	if err == nil && f.d.N() != size {
		err = fmt.Errorf("spiod: %d bytes after the %s", size-f.d.N(), what)
	}
	if err != nil {
		// What the buffer holds goes with the next Reset; the rest of the
		// frame is read here. A connection that ends first is cut.
		if _, derr := io.Copy(io.Discard, &f.body); derr != nil || f.body.N > 0 {
			f.cut = true
		}
	}
	return err
}

// vecFrame assembles one frame — a hello, a request, a response — for a
// single write. What is written to it is copied behind the length prefix;
// what is lent to it — an answer's row segments — is only referenced, and
// goes out from where it lies. An answer's payload is therefore produced
// once and never copied into a frame.
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
// vectored write — one writev on a socket, the pieces in order on a
// writer that has no vectored write.
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
// decoder reads the payload into row segments of its own (Fill, the
// reading side of Lend).

func encodeRows(e *binio.Writer, rows *particle.Rows) {
	format.EncodeSchema(e, rows.Schema())
	e.U64(uint64(rows.Len()))
	e.Lend(rows.Segments())
}

// decodeRows decodes an answer's rows from a frame of limit bytes: a
// record count the bytes left in the frame cannot hold is refused before
// a segment is taken. The caller owns the rows.
func decodeRows(d *binio.Reader, limit int64) (*particle.Rows, error) {
	schema, err := format.DecodeSchema(d)
	if err != nil {
		return nil, err
	}
	n := d.U64()
	left := max(limit-d.N(), 0)
	if n > uint64(left) {
		// Stride is at least the position field, so n records never fit
		// in fewer bytes; checking n first keeps size from overflowing.
		d.Fail("buffer of %d records exceeds the %d bytes left in the frame", n, left)
	}
	size := n * uint64(schema.Stride())
	if d.Err() == nil && size > uint64(left) {
		d.Fail("buffer payload of %d bytes exceeds the %d bytes left in the frame", size, left)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	rows := particle.NewRows(schema)
	rows.Extend(int(n))
	d.Fill(rows.Segments())
	if d.Err() != nil {
		rows.Release()
		return nil, d.Err()
	}
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

// decodeAnswer decodes the answer of a frame of limit bytes. It keeps the
// read stats of the answer's wireStats: the queue and service times are
// the server's, for its metrics. It decodes into locals and builds the
// Answer once, as a literal.
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
