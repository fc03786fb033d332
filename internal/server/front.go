package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spio/internal/binio"
	"spio/internal/format"
	rdr "spio/internal/reader"
)

// Backend is what a Front serves: spiod's Server, whose mounts answer
// from local files or by scatter-gather over shards (internal/gateway).
// Everything about connections, frames, admission and drain is the
// Front's; a Backend only names datasets and answers queries on them.
type Backend interface {
	// Resolve maps a dataset reference to the dataset answering it.
	Resolve(ref string) (Dataset, error)
	// List returns the servable dataset references (opList).
	List() []string
	// StatsJSON renders the backend's metrics document (opStats).
	StatsJSON() []byte
}

// Dataset is the query surface a Backend resolves a reference to: its
// metadata, and an rdr.Answer to each of the four query ops. An error
// wrapping ErrBudget, ErrOverloaded or ErrDraining travels to the client
// under the matching status; any other error is a plain failure.
type Dataset interface {
	Meta() *format.Meta
	Answer(req *rdr.Request) (*rdr.Answer, error)
}

// A spiod serves a mounted dataset as the reader's Dataset itself.
var _ Dataset = (*rdr.Dataset)(nil)

// Frame bounds on what a client may send.
const (
	helloFrameMax = 64
	reqFrameMax   = 1 << 20
)

// helloTimeout bounds the wait for a connection's hello. A client sends
// it the moment it has connected, so the bound is generous and still
// ends a peer that connects and never speaks, which otherwise holds a
// handler goroutine and a descriptor until the drain. One value is in
// use, so it is not a Config field.
const helloTimeout = 10 * time.Second

// Front is spiod's protocol front: the accept loop, the per-connection
// hello and request loop, admission, the response byte budget, frame
// encoding, the drain handshake and the traffic counters. A request is one frame in and one frame out, and
// nothing of it — worker slot, rows, file pins — outlives the response.
type Front struct {
	cfg     Config
	backend Backend
	adm     *admission

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[*srvConn]struct{}

	stop      chan struct{} // closed when drain starts
	drained   chan struct{} // closed when drain has finished
	drainOnce sync.Once
	draining  atomic.Bool
	reqWG     sync.WaitGroup // in-flight requests
	connWG    sync.WaitGroup // connection handlers
	acceptWG  sync.WaitGroup // accept loops

	metrics metrics

	// requestDelay artificially lengthens request service (tests: holds
	// workers busy to provoke queueing and overload).
	requestDelay time.Duration
}

// NewFront builds a Front over b. Of cfg it reads Workers, QueueDepth
// and MaxRespBytes.
func NewFront(cfg Config, b Backend) *Front {
	return &Front{
		cfg:     cfg,
		backend: b,
		adm:     newAdmission(cfg.workers(), cfg.queueDepth()),
		conns:   map[*srvConn]struct{}{},
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
		metrics: metrics{startNano: time.Now().UnixNano()},
	}
}

// Serve accepts connections on l until Shutdown. It returns nil on
// drain-triggered listener close.
func (f *Front) Serve(l net.Listener) error {
	f.mu.Lock()
	if f.draining.Load() {
		f.mu.Unlock()
		return errDraining
	}
	f.listeners = append(f.listeners, l)
	f.mu.Unlock()
	f.acceptWG.Add(1)
	defer f.acceptWG.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			if f.draining.Load() {
				return nil
			}
			return err
		}
		f.mu.Lock()
		if f.draining.Load() {
			f.mu.Unlock()
			_ = conn.Close() // drain raced the accept: turn the client away
			return nil
		}
		sc := &srvConn{Conn: conn}
		f.conns[sc] = struct{}{}
		f.mu.Unlock()
		f.connWG.Add(1)
		go func() {
			defer f.connWG.Done()
			f.handleConn(sc)
		}()
	}
}

// srvConn is one accepted connection plus the mutex that serializes
// frame writes on it. The request loop is sequential, but graceful
// drain writes an unsolicited statusDraining frame from the Shutdown
// goroutine — without the lock that frame could interleave with a late
// handler response and corrupt the stream.
type srvConn struct {
	net.Conn
	wmu sync.Mutex
}

// writeLockedFrame sends one frame under the connection's write lock,
// which is held for the whole of a vectored write.
func (c *srvConn) writeLockedFrame(fr *vecFrame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	//spio:allow lockorder -- wmu serializes whole frame writes on this conn; holding it across the I/O is the point
	return fr.writeTo(c.Conn)
}

// Shutdown drains the front: stop accepting, fail queued admissions,
// let in-flight requests finish, then notify and close
// connections. The context bounds the wait; the drain itself runs once
// and every caller waits for the same one.
func (f *Front) Shutdown(ctx context.Context) error {
	f.drainOnce.Do(func() {
		f.draining.Store(true)
		close(f.stop)
		f.mu.Lock()
		for _, l := range f.listeners {
			_ = l.Close() // unblocks Accept; drain is the reported outcome
		}
		f.mu.Unlock()
		go f.drain()
	})
	select {
	case <-f.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *Front) drain() {
	defer close(f.drained)
	f.reqWG.Wait() // every admitted request completes
	// Snapshot under the lock, notify and close outside it: the notice
	// write and Close can stall on a wedged peer, and holding f.mu
	// through that would freeze accept bookkeeping for everyone else.
	f.mu.Lock()
	idle := make([]*srvConn, 0, len(f.conns))
	for c := range f.conns {
		idle = append(idle, c)
	}
	f.mu.Unlock()
	for _, c := range idle {
		// Drain handshake: tell the idle peer we are going away before
		// cutting the connection, so its next call reads a clean
		// statusDraining frame (ErrDraining, retried or routed around)
		// instead of a raw reset. Best effort, bounded by a short
		// deadline — a wedged peer gets the abrupt close.
		_ = c.SetWriteDeadline(time.Now().Add(time.Second))
		_ = f.sendStatus(c, statusDraining, errDraining.Error()) // best effort; close follows either way
		_ = c.Close()                                            // idle connections blocked in read
	}
	f.connWG.Wait()
	f.acceptWG.Wait()
}

// handleConn speaks the protocol on one connection: hello, then a
// request loop.
func (f *Front) handleConn(conn *srvConn) {
	f.metrics.activeConns.Add(1)
	defer f.metrics.activeConns.Add(-1)
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
		_ = conn.Close() // second close after drain is harmless
	}()

	// The hello is read under a deadline, lifted once the ack is out: an
	// idle connection that has said hello may stay as long as it likes.
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout)) // a conn without deadlines just waits, as before
	body, err := readFrame(conn, helloFrameMax)
	if err != nil {
		return
	}
	d := bodyReader(body)
	if _, err = decodeHello(d.Reader); err == nil && d.N() != int64(len(body)) {
		err = fmt.Errorf("spiod: %d bytes after the hello", int64(len(body))-d.N())
	}
	if err != nil {
		_ = f.sendStatus(conn, statusError, err.Error())
		return
	}
	if err := f.sendStatus(conn, statusOK, ""); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{}) // see above

	for {
		body, err := readFrame(conn, reqFrameMax)
		if err != nil {
			return // client closed (or drain closed us)
		}
		d := bodyReader(body)
		ref, req, err := decodeRequest(d.Reader)
		d.release()
		if err != nil {
			_ = f.sendStatus(conn, statusError, err.Error())
			return
		}
		if err := f.handleRequest(conn, ref, req); err != nil {
			return
		}
	}
}

// sendStatus writes a header-only response frame.
func (f *Front) sendStatus(conn *srvConn, status uint8, msg string) error {
	return f.send(conn, status, msg, nil)
}

// fail answers a request with an error status and counts it.
func (f *Front) fail(conn *srvConn, status uint8, msg string) error {
	f.metrics.errors.Add(1)
	return f.sendStatus(conn, status, msg)
}

// sendErr answers a request with a backend error, mapped onto the wire
// status vocabulary: what a gateway's shard refused with, the gateway's
// client is refused with.
func (f *Front) sendErr(conn *srvConn, err error) error {
	status := uint8(statusError)
	switch {
	case errors.Is(err, ErrBudget):
		status = statusBudget
	case errors.Is(err, ErrOverloaded):
		status = statusOverloaded
	case errors.Is(err, ErrDraining):
		status = statusDraining
	}
	return f.fail(conn, status, err.Error())
}

// send writes one response frame: header, then the payload encoded by
// body (which must leave the writer clean on success). Whatever body
// lends the frame must stay unchanged until send returns.
func (f *Front) send(conn *srvConn, status uint8, msg string, body func(e *binio.Writer)) error {
	fr := newVecFrame()
	e := binio.NewWriter(fr)
	encodeRespHeader(e, &respHeader{Status: status, Msg: msg})
	if body != nil {
		body(e)
	}
	if e.Err() != nil {
		return e.Err()
	}
	f.metrics.bytesServed.Add(int64(fr.size()) + 4)
	return conn.writeLockedFrame(fr)
}

// handleRequest admits and executes one request. A non-nil return tears
// the connection down (wire-level failure); request-level errors travel
// back as status frames.
func (f *Front) handleRequest(conn *srvConn, ref string, req *rdr.Request) error {
	// A request joins the drain's wait under f.mu, which Shutdown takes
	// after flipping draining and before it starts waiting: the request is
	// either counted before the wait begins or sees the flag and is turned
	// away — never added to a WaitGroup already being waited on.
	f.mu.Lock()
	if f.draining.Load() {
		f.mu.Unlock()
		f.metrics.drained.Add(1)
		return f.sendStatus(conn, statusDraining, errDraining.Error())
	}
	f.reqWG.Add(1)
	f.mu.Unlock()
	defer f.reqWG.Done()
	wait, err := f.adm.acquire(f.stop)
	switch {
	case errors.Is(err, ErrOverloaded):
		f.metrics.overloaded.Add(1)
		return f.sendStatus(conn, statusOverloaded, err.Error())
	case errors.Is(err, errDraining):
		f.metrics.drained.Add(1)
		return f.sendStatus(conn, statusDraining, err.Error())
	case err != nil:
		return f.sendStatus(conn, statusError, err.Error())
	}
	defer f.adm.release()
	if f.requestDelay > 0 {
		time.Sleep(f.requestDelay)
	}
	werr := f.execute(conn, ref, req, wait, time.Now())
	if werr != nil {
		f.metrics.errors.Add(1)
	}
	return werr
}

// execute dispatches an admitted request for the dataset ref names to the
// backend and encodes its answer.
func (f *Front) execute(conn *srvConn, ref string, req *rdr.Request, wait time.Duration, start time.Time) error {
	// Ops that need no dataset first.
	switch req.Op {
	case opStats:
		blob := f.backend.StatsJSON()
		f.metrics.requests.Add(1)
		return f.send(conn, statusOK, "", func(e *binio.Writer) { encodeBlob(e, blob) })
	case opList:
		names := f.backend.List()
		f.metrics.requests.Add(1)
		return f.send(conn, statusOK, "", func(e *binio.Writer) { encodeNames(e, names) })
	}

	ds, err := f.backend.Resolve(ref)
	if err != nil {
		return f.sendErr(conn, err)
	}
	switch req.Op {
	case opMeta:
		var mb bytes.Buffer
		if err := format.EncodeMeta(&mb, ds.Meta()); err != nil {
			return f.sendErr(conn, err)
		}
		f.metrics.requests.Add(1)
		return f.send(conn, statusOK, "", func(e *binio.Writer) { encodeBlob(e, mb.Bytes()) })

	case rdr.OpQueryBox, rdr.OpKNN, rdr.OpHalo, rdr.OpDensityGrid:
		a, err := ds.Answer(req)
		if err != nil {
			return f.sendErr(conn, err)
		}
		defer a.Release()
		if a.Stats.Partial {
			f.metrics.partials.Add(1)
		}
		if n, budget := a.Bytes(), f.cfg.maxRespBytes(); n > budget {
			return f.fail(conn, statusBudget, budgetMsg(n, budget))
		}
		st := wireStats{Read: a.Stats, QueueWait: int64(wait), Service: int64(time.Since(start))}
		f.metrics.note(&st)
		return f.send(conn, statusOK, "", func(e *binio.Writer) { encodeAnswer(e, req.Op, &st, a) })

	default:
		return f.fail(conn, statusError, fmt.Sprintf("spiod: unknown op %d", req.Op))
	}
}

func budgetMsg(got, budget int64) string {
	return fmt.Sprintf("spiod: response of %d bytes exceeds the per-request budget of %d", got, budget)
}
