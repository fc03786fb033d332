package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"spio/internal/binio"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// ErrDraining is returned by client calls refused because the server is
// shutting down; redial (or retry elsewhere) later.
var ErrDraining = errors.New("spiod: server is draining")

// ErrClientBroken is returned by calls on a client whose connection is
// no longer trustworthy: a previous exchange failed at the transport
// level (or the server announced drain), so the stream position is
// unknown. Pools close broken clients instead of reusing them.
var ErrClientBroken = errors.New("spiod: connection broken by earlier failure")

// ErrBudget is returned when a query's response would exceed the
// server's per-request byte budget; narrow the box or read fewer
// levels.
var ErrBudget = errors.New("spiod: response exceeds the server's byte budget")

// DefaultMaxFrame bounds the response frames (and the blobs inside
// them) a client accepts unless WithMaxFrame overrides it. Response
// size is governed server-side by the byte budget; this cap is the
// client's own defense against a garbage or hostile length prefix,
// which would otherwise commit it to a multi-GiB allocation before the
// first payload byte.
const DefaultMaxFrame int64 = 256 << 20

// maxFrameCeiling is the hard upper bound WithMaxFrame clamps to: the
// length prefix is a u32, and staying under 2^31 keeps every frame
// length representable as an int on 32-bit platforms too.
const maxFrameCeiling int64 = 1<<31 - 1

// DialOption customizes a dialed Client.
type DialOption func(*Client)

// WithMaxFrame overrides the largest response frame the client will
// accept, in bytes. Values outside (0, 2^31) are clamped to the
// protocol's hard frame ceiling.
func WithMaxFrame(n int64) DialOption {
	return func(c *Client) {
		if n <= 0 || n > maxFrameCeiling {
			n = maxFrameCeiling
		}
		//spio:allow racegate -- dial options run before Dial publishes the client; the field is read-only afterwards
		c.maxFrame = n
	}
}

// WithCallTimeout bounds each request/response exchange with a
// connection deadline. A timeout surfaces as a transport error and marks
// the client broken — the response may still be in flight, so the
// connection cannot be reused. Zero (the default) means no deadline.
func WithCallTimeout(d time.Duration) DialOption {
	//spio:allow racegate -- dial options run before Dial publishes the client; the field is read-only afterwards
	return func(c *Client) { c.callTimeout = d }
}

// ParseAddr splits a dial/listen address into (network, address):
// "unix:/path" and "tcp:host:port" are explicit; anything containing a
// path separator dials unix, the rest tcp.
func ParseAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):], nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):], nil
	case strings.ContainsAny(addr, "/\\"):
		return "unix", addr, nil
	case addr == "":
		return "", "", fmt.Errorf("spiod: empty address")
	default:
		return "tcp", addr, nil
	}
}

// Client is one connection to a spiod server. Calls are serialized per
// client (the protocol is sequential); open one client per concurrent
// consumer, or check clients out of a ClientPool.
type Client struct {
	mu          sync.Mutex // serializes request/response exchanges
	conn        net.Conn
	in          *frameIn // the response frames, read from conn
	maxFrame    int64    // largest acceptable response frame (DefaultMaxFrame unless overridden)
	callTimeout time.Duration
	broken      bool // transport desync: the conn must not be reused
}

// Dial connects to a spiod server ("unix:/path", "tcp:host:port", or a
// bare socket path / host:port) and performs the protocol handshake.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	network, address, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, in: newFrameIn(conn), maxFrame: DefaultMaxFrame}
	for _, opt := range opts {
		opt(c)
	}
	// The handshake gets the same deadline as calls: a listener whose
	// process died with connections still in the accept backlog would
	// otherwise hang the dial forever. The ack is a bare OK status;
	// anything else is the refusal.
	c.armDeadline()
	defer c.disarmDeadline()
	err = c.send(func(e *binio.Writer) { encodeHello(e, &hello{Version: protoVersion}) })
	if err == nil {
		err = c.readResp(nil)
	}
	if err != nil {
		_ = conn.Close() // handshake failed; the handshake error is the one to report
		return nil, err
	}
	return c, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether a transport-level failure (or a server drain
// notice) has desynchronized the connection. A broken client fails all
// further calls with ErrClientBroken; pools close it instead of reusing
// it. Request-level errors (overload, budget, bad query) do NOT break
// the client — those exchanges completed cleanly.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// armDeadline applies the per-call timeout to the connection; callers
// hold c.mu.
func (c *Client) armDeadline() {
	if c.callTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.callTimeout))
	}
}

func (c *Client) disarmDeadline() {
	if c.callTimeout > 0 {
		_ = c.conn.SetDeadline(time.Time{})
	}
}

// send writes one frame, what enc encodes, in one write.
func (c *Client) send(enc func(e *binio.Writer)) error {
	fr := newVecFrame()
	enc(binio.NewWriter(fr))
	return fr.writeTo(c.conn)
}

// readResp reads one response frame: its status, mapped to an error, and
// on OK the payload, which decode reads as it arrives (nil: a bare
// status).
func (c *Client) readResp(decode func(d *binio.Reader, size int64) error) error {
	return c.in.read(c.maxFrame, "response", func(d *binio.Reader, size int64) error {
		h, err := decodeRespHeader(d)
		if err != nil {
			return badHeader{err}
		}
		switch h.Status {
		case statusOK:
			if decode == nil {
				return nil
			}
			return decode(d, size)
		case statusOverloaded:
			return fmt.Errorf("%w (%s)", ErrOverloaded, h.Msg)
		case statusDraining:
			return fmt.Errorf("%w (%s)", ErrDraining, h.Msg)
		case statusBudget:
			return fmt.Errorf("%w (%s)", ErrBudget, h.Msg)
		default:
			return errors.New(h.Msg)
		}
	})
}

// badHeader is a response whose header does not decode: not a refusal
// but a peer that no longer speaks the protocol, so it breaks the client
// (a pool fails over to the next replica).
type badHeader struct{ error }

func (e badHeader) Unwrap() error { return e.error }

// call performs one request/response exchange under the client lock:
// req, asked of the dataset ref, its answer's payload read by decode (see
// readResp) under the same lock.
func (c *Client) call(ref string, req *rdr.Request, decode func(d *binio.Reader, size int64) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return ErrClientBroken
	}
	// The lock intentionally spans the conn I/O (deadline arming
	// included): it is what serializes whole request/response exchanges
	// on the shared connection, and every waiter is another caller of
	// the same exchange.
	//spio:allow lockorder -- mu serializes request/response exchanges on the shared conn; holding it across the I/O is the protocol
	c.armDeadline()
	defer c.disarmDeadline()
	if err := c.send(func(e *binio.Writer) { encodeRequest(e, ref, req) }); err != nil {
		// The write can fail because the server drained and closed the
		// socket — in which case its goodbye frame is sitting in our
		// receive buffer. Salvage it so the caller sees ErrDraining (a
		// clean "go elsewhere") instead of a raw reset.
		c.broken = true
		if rerr := c.readResp(nil); errors.Is(rerr, ErrDraining) {
			return rerr
		}
		return err
	}
	err := c.readResp(decode)
	// A transport failure, a bad header or the server's drain notice ends
	// the connection; a refused payload does not, its frame having been
	// skipped.
	var bad badHeader
	c.broken = c.in.cut || errors.As(err, &bad) || errors.Is(err, ErrDraining)
	return err
}

// List returns the dataset references the server is currently willing
// to serve.
func (c *Client) List() ([]string, error) {
	var names []string
	err := c.call("", &rdr.Request{Op: opList}, func(d *binio.Reader, _ int64) (err error) {
		names, err = decodeNames(d)
		return err
	})
	return names, err
}

// Stats fetches the server's metrics snapshot as JSON.
func (c *Client) Stats() ([]byte, error) {
	var blob []byte
	err := c.call("", &rdr.Request{Op: opStats}, func(d *binio.Reader, size int64) (err error) {
		blob, err = decodeBlob(d, uint64(size))
		return err
	})
	return blob, err
}

// Open resolves a dataset reference ("name", "name@N", "name@latest")
// into a RemoteDataset mirroring the local Dataset query surface.
func (c *Client) Open(ref string) (*RemoteDataset, error) {
	var blob []byte
	err := c.call(ref, &rdr.Request{Op: opMeta}, func(d *binio.Reader, size int64) (err error) {
		blob, err = decodeBlob(d, uint64(size))
		return err
	})
	if err != nil {
		return nil, err
	}
	// The blob is the exact EncodeMeta image the daemon read from disk:
	// the remote and local views of the dataset cannot drift.
	meta, err := format.DecodeMeta(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	return &RemoteDataset{c: c, ref: ref, meta: meta}, nil
}

// Attach binds an already-fetched metadata image to a dataset reference
// on this client without the opMeta round trip. A gateway fetches each
// shard's metadata once at mount and attaches it to every pooled
// connection it checks out afterwards.
func (c *Client) Attach(ref string, meta *format.Meta) *RemoteDataset {
	return &RemoteDataset{c: c, ref: ref, meta: meta}
}

// RemoteDataset is a dataset served by a remote spiod, implementing the
// same query surface as the local rdr.Dataset.
type RemoteDataset struct {
	c    *Client
	ref  string
	meta *format.Meta
	// ownsConn marks datasets opened via the package-level convenience
	// dial: their Close also closes the client connection.
	ownsConn bool
}

// OpenRemote dials addr and opens one dataset in a single step; Close
// on the result closes the connection.
func OpenRemote(addr, ref string, opts ...DialOption) (*RemoteDataset, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	ds, err := c.Open(ref)
	if err != nil {
		_ = c.Close() // open failed; the open error is the one to report
		return nil, err
	}
	ds.ownsConn = true
	return ds, nil
}

// Meta exposes the dataset's spatial metadata (decoded from the exact
// on-disk bytes).
func (r *RemoteDataset) Meta() *format.Meta { return r.meta }

// Ref returns the dataset reference this handle resolves on the server.
func (r *RemoteDataset) Ref() string { return r.ref }

// Close releases the handle (and the connection, for OpenRemote
// handles).
func (r *RemoteDataset) Close() error {
	if r.ownsConn {
		return r.c.Close()
	}
	return nil
}

// Answer asks the server for req on this dataset and returns the server's
// answer, whose rows the caller owns. RemoteDataset is thereby a Dataset:
// a gateway forwards the request it was asked to each shard with this one
// call.
func (r *RemoteDataset) Answer(req *rdr.Request) (*rdr.Answer, error) {
	var a *rdr.Answer
	err := r.c.call(r.ref, req, func(d *binio.Reader, size int64) (err error) {
		a, err = decodeAnswer(d, req.Op, size)
		return err
	})
	if err != nil {
		if a != nil {
			a.Release() // decoded, then refused for the bytes behind it
		}
		return nil, err
	}
	return a, nil
}

// The column reads of a RemoteDataset are the ones every rdr.Answerer
// has, those of a local rdr.Dataset.

// QueryBox reads the particles intersecting q, server-side.
func (r *RemoteDataset) QueryBox(q geom.Box, opts rdr.Options) (*particle.Buffer, rdr.Stats, error) {
	return rdr.QueryBox(r, q, opts)
}

// ReadAll reads the whole dataset (optionally only some LOD levels).
func (r *RemoteDataset) ReadAll(opts rdr.Options) (*particle.Buffer, rdr.Stats, error) {
	return rdr.ReadAll(r, opts)
}

// KNN returns the k particles nearest p and their distances.
func (r *RemoteDataset) KNN(p geom.Vec3, k int) (*particle.Buffer, []float64, rdr.Stats, error) {
	return rdr.KNN(r, p, k)
}

// Halo reads a patch's particles plus the ghost layer within halo of
// it, separately.
func (r *RemoteDataset) Halo(patch geom.Box, halo float64, opts rdr.Options) (own, ghost *particle.Buffer, st rdr.Stats, err error) {
	return rdr.Halo(r, patch, halo, opts)
}

// DensityGrid estimates per-cell particle counts over the domain from
// the first levels LOD levels; the sampling fraction is also returned.
func (r *RemoteDataset) DensityGrid(dims geom.Idx3, levels, readers int) ([]float64, float64, rdr.Stats, error) {
	return rdr.DensityGrid(r, dims, levels, readers)
}

// LevelCount returns the number of LOD levels the dataset exposes to
// nReaders readers.
func (r *RemoteDataset) LevelCount(nReaders int) int { return rdr.LevelCount(r.meta, nReaders) }

// ProgressiveBox starts a progressive read over the files intersecting q:
// a cursor the client holds, each level one box query, so between two
// levels the server holds nothing for it.
func (r *RemoteDataset) ProgressiveBox(q geom.Box, levels, readers int) (*rdr.Stream, error) {
	return rdr.ProgressiveBox(r, q, levels, readers)
}
