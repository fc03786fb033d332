package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spio/internal/binio"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// TestRowsReleasedOnEveryExit drives a Front through every way a request
// that was handed rows can end — answered, refused for the budget,
// failed by the backend, written to a peer that hangs up in the middle
// of the frame — and checks, once the front has drained, that no row
// segment is still held: the front owns the rows it is handed, and
// releases them on every path (a stream's level is a box answer).
func TestRowsReleasedOnEveryExit(t *testing.T) {
	held := particle.RowSegmentsHeld()
	// 40000 Uintah records: a 5 MB answer, several segments, far more than
	// a socket buffer holds, so a write to a peer that is gone must fail.
	b := newFakeBackend(40000)
	f := NewFront(Config{MaxRespBytes: b.buf.Bytes() + 1}, b)
	addr := startServer(t, f)
	_, path, err := ParseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Attach("fake", fakeDataset{}.Meta())
	// Answered.
	if got, _, err := ds.QueryBox(geom.UnitBox(), rdr.Options{}); err != nil || !got.Equal(b.buf) {
		t.Fatalf("box: %v", err)
	}
	// Refused for the budget, with a halo's two halves or a KNN's rows in hand.
	if _, _, _, err := ds.Halo(geom.UnitBox(), 0.1, rdr.Options{}); !errors.Is(err, ErrBudget) {
		t.Fatalf("halo over budget: %v, want ErrBudget", err)
	}
	if _, _, _, err := ds.KNN(geom.V3(0, 0, 0), 1); !errors.Is(err, ErrBudget) {
		t.Fatalf("knn over budget: %v, want ErrBudget", err)
	}
	// Failed by the backend.
	b.setErr(errors.New("fake: backend down"))
	if _, _, err := ds.QueryBox(geom.UnitBox(), rdr.Options{}); err == nil {
		t.Fatal("backend error did not reach the client")
	}
	b.setErr(nil)
	_ = c.Close()

	// The peer hangs up with the answer on its way: hello and request
	// by hand, then close without reading a byte of the response.
	conn, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	encodeHello(binio.NewWriter(&fb), &hello{Version: protoVersion})
	if err := sendBody(conn, fb.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := recvBody(conn, 1<<16); err != nil {
		t.Fatal(err)
	}
	fb.Reset()
	encodeRequest(binio.NewWriter(&fb), "fake", &rdr.Request{Op: rdr.OpQueryBox, Box: geom.UnitBox()})
	if err := sendBody(conn, fb.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	// The request is answered into the closed connection before the
	// drain below can turn it away: wait for its handler to be gone.
	for deadline := time.Now().Add(10 * time.Second); f.metrics.activeConns.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("connection handlers still running 10s after their peers hung up")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held after the front has drained", got-held)
	}
	// Two budget refusals, one backend error, and the answer — far larger
	// than a socket buffer — failing on the peer that left.
	if got := f.Snapshot().Errors; got != 4 {
		t.Errorf("%d requests failed, want 4: the refusing and failing exits did not all run", got)
	}
}

// writeLog is a net.Conn that records every Write it is handed. It is a
// wrapped connection, as the benchmark's counting listener makes them:
// it has no vectored write, so a vector reaches it piece by piece.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the writes recorded so far and forgets them.
func (c *writeLog) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

type writeLogListener struct {
	net.Listener
	conns chan *writeLog
}

func (l *writeLogListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wl := &writeLog{Conn: c}
	l.conns <- wl
	return wl, nil
}

// dialLogged serves f on a fresh unix socket behind a writeLogListener,
// dials it, and returns the client and the server's end of its
// connection. Shutdown and Close run at test cleanup.
func dialLogged(t *testing.T, f *Front) (*Client, *writeLog) {
	t.Helper()
	addr := sockAddr(t)
	_, path, err := ParseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	wl := &writeLogListener{Listener: l, conns: make(chan *writeLog, 1)}
	go func() { _ = f.Serve(wl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, <-wl.conns
}

// TestOneWritePerFrame pins the frame writers: a frame with no lent
// payload — hello, request, status, list, stats, density — leaves
// either side in exactly one Write, length prefix included, on any
// connection; a frame with a lent payload is one vectored write on a
// socket and degrades to its pieces in order on a wrapped connection.
// Either way the bytes on the connection are the same frame.
func TestOneWritePerFrame(t *testing.T) {
	c, srv := dialLogged(t, NewFront(Config{}, newFakeBackend(4)))
	cli := &writeLog{Conn: c.conn}
	c.conn = cli
	ds := c.Attach("fake", fakeDataset{}.Meta())

	// oneFrame checks that side wrote exactly one frame in exactly `writes`
	// Writes since the last check, and returns its body.
	oneFrame := func(what string, side *writeLog, writes int) []byte {
		t.Helper()
		ws := side.take()
		if len(ws) != writes {
			t.Errorf("%s: %d writes, want %d", what, len(ws), writes)
		}
		stream := bytes.Join(ws, nil)
		body, err := recvBody(bytes.NewReader(stream), 1<<20)
		if err != nil || len(body)+4 != len(stream) {
			t.Fatalf("%s: %d bytes written are not one frame: %v", what, len(stream), err)
		}
		return body
	}
	oneFrame("hello ack", srv, 1)

	if _, err := c.List(); err != nil {
		t.Fatal(err)
	}
	oneFrame("list request", cli, 1)
	oneFrame("list response", srv, 1)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	oneFrame("stats request", cli, 1)
	oneFrame("stats response", srv, 1)
	if _, _, _, err := ds.DensityGrid(geom.I3(1, 1, 1), 0, 1); err != nil {
		t.Fatal(err)
	}
	oneFrame("density request", cli, 1)
	oneFrame("density response", srv, 1)
	if _, err := c.Open("nope"); err == nil {
		t.Fatal("unresolvable reference opened")
	}
	oneFrame("meta request", cli, 1)
	oneFrame("error status", srv, 1)

	// A lent payload: head, then the one row segment, since nothing
	// follows the rows of a box answer; a KNN answer has its distances
	// behind them.
	if _, _, err := ds.QueryBox(geom.UnitBox(), rdr.Options{}); err != nil {
		t.Fatal(err)
	}
	oneFrame("box request", cli, 1)
	box := oneFrame("box response on a wrapped connection", srv, 2)
	if _, _, _, err := ds.KNN(geom.V3(0, 0, 0), 1); err != nil {
		t.Fatal(err)
	}
	oneFrame("knn request", cli, 1)
	oneFrame("knn response on a wrapped connection", srv, 3)

	// The same box answer through a real socket — one vectored write —
	// is the same frame but for the times in its stats.
	// A decoded answer keeps the read stats alone: the times are read
	// from a second look at the frame.
	d, d2 := binio.NewReader(bytes.NewReader(box), "spiod"), binio.NewReader(bytes.NewReader(box), "spiod")
	_, err1 := decodeRespHeader(d)
	_, err2 := decodeRespHeader(d2)
	st, err3 := decodeStats(d)
	a, err4 := decodeAnswer(d2, rdr.OpQueryBox, int64(len(box)))
	if err := cmp.Or(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	left, right := socketPair(t)
	fr := newVecFrame()
	e := binio.NewWriter(fr)
	encodeRespHeader(e, &respHeader{Status: statusOK})
	encodeAnswer(e, rdr.OpQueryBox, st, a)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	done := make(chan error, 1)
	go func() { done <- fr.writeTo(left) }()
	got, err := recvBody(right, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, box) {
		t.Errorf("the frame a vectored write puts on a socket (%d bytes) differs from the one written piece by piece (%d bytes)", len(got), len(box))
	}
}

// TestAnswerCostsItsRows: on the socket a box, a KNN and a halo answer
// cost the bytes of their rows (and 8 for each of a KNN's distances) plus
// a header — length prefix, status, stats, schema, counts — of at most
// 1 KiB, neither more nor less, whatever the record count and whether the
// records are whole or positions only (what Fields: position answers
// with). An answer travels as its records and in no second form, which is
// what makes server.wire_bytes_per_user_byte 1.00 by construction.
func TestAnswerCostsItsRows(t *testing.T) {
	for _, schema := range []*particle.Schema{particle.Uintah(), particle.PositionOnly()} {
		for _, n := range []int{0, 1, particle.RowBlock + 1, 3*particle.RowBlock + 17} {
			buf := particle.Uniform(schema, geom.UnitBox(), n, 7, 0)
			c, srv := dialLogged(t, NewFront(Config{}, &fakeBackend{buf: buf}))
			srv.take() // the hello's ack
			ds := c.Attach("fake", fakeDataset{}.Meta())
			costs := func(what string, user int64) {
				t.Helper()
				var frame int64
				for _, w := range srv.take() {
					frame += int64(len(w))
				}
				if head := frame - user; head < 0 || head > 1<<10 {
					t.Errorf("%s of %d records of %d bytes: %d bytes on the socket for %d of answer", what, n, schema.Stride(), frame, user)
				}
			}
			if got, _, err := ds.QueryBox(geom.UnitBox(), rdr.Options{}); err != nil || !got.Equal(buf) {
				t.Fatalf("box: %v", err)
			}
			costs("box", buf.Bytes())
			_, dists, _, err := ds.KNN(geom.V3(0, 0, 0), 1)
			if err != nil {
				t.Fatalf("knn: %v", err)
			}
			costs("knn", 2*buf.Bytes()+8*int64(len(dists)))
			if _, _, _, err := ds.Halo(geom.UnitBox(), 0.1, rdr.Options{}); err != nil {
				t.Fatalf("halo: %v", err)
			}
			costs("halo", 2*buf.Bytes())
		}
	}
}

// socketPair returns the two ends of a connected unix stream socket.
func socketPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	addr := sockAddr(t)
	_, path, err := ParseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	left, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	right := <-accepted
	t.Cleanup(func() { left.Close(); right.Close() })
	return left, right
}

// scriptedResp is one response a scriptedPeer sends: body as it is, or,
// cut, the length prefix of the whole body and the first half of it,
// after which the peer hangs up.
type scriptedResp struct {
	body []byte
	cut  bool
}

// scriptedPeer serves one connection at a fresh address by hand: it acks
// the hello and answers the i'th request with the i'th response, whatever
// was asked. It is how a test hands a client frames no front would send.
func scriptedPeer(t *testing.T, script ...scriptedResp) string {
	t.Helper()
	addr := sockAddr(t)
	_, path, err := ParseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	var ack bytes.Buffer
	encodeRespHeader(binio.NewWriter(&ack), &respHeader{Status: statusOK})
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		// The hello, then one request per response.
		for i := -1; i < len(script); i++ {
			if _, err := recvBody(conn, reqFrameMax); err != nil {
				return // the client is gone
			}
			resp := scriptedResp{body: ack.Bytes()}
			if i >= 0 {
				resp = script[i]
			}
			var frame bytes.Buffer
			if err := sendBody(&frame, resp.body); err != nil {
				t.Error(err)
				return
			}
			if resp.cut {
				_, _ = conn.Write(frame.Bytes()[:4+len(resp.body)/2]) // the client sees the cut either way
				return
			}
			if _, err := conn.Write(frame.Bytes()); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { l.Close(); <-done })
	return addr
}

// boxResp is the body of an OK box answer of Uintah records: count, then
// payload, then tail, whatever count says.
func boxResp(t *testing.T, count uint64, payload []byte, tail ...byte) []byte {
	t.Helper()
	var b bytes.Buffer
	e := binio.NewWriter(&b)
	encodeRespHeader(e, &respHeader{Status: statusOK})
	encodeStats(e, &wireStats{})
	format.EncodeSchema(e, particle.Uintah())
	e.U64(count)
	e.Bytes(payload)
	e.Bytes(tail)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	return b.Bytes()
}

// TestRefusedAnswerLeavesClientUsable: a response whose row count the
// frame cannot hold, and one with a byte behind a whole answer, are each
// refused and skipped — the client holds no row segment for them, is not
// broken, and its next call reads the next answer whole. The refused
// frames are larger than the frame reader's buffer, so what is skipped is
// read off the connection. A response whose header does not decode is no
// refusal: it breaks the client, so a pool fails over.
func TestRefusedAnswerLeavesClientUsable(t *testing.T) {
	held := particle.RowSegmentsHeld()
	recs := particle.Uniform(particle.Uintah(), geom.UnitBox(), 100, 5, 0).Encode()
	ds := dialFake(t, scriptedPeer(t,
		scriptedResp{body: boxResp(t, 1<<20, recs)},
		scriptedResp{body: boxResp(t, 100, recs, 0)},
		scriptedResp{body: boxResp(t, 100, recs)},
		scriptedResp{body: []byte{statusOK}}, // a header without its message
	))
	req := &rdr.Request{Op: rdr.OpQueryBox, Box: geom.UnitBox()}
	for _, want := range []string{"bytes left in the frame", "1 bytes after the response"} {
		if _, err := ds.Answer(req); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("answered with %v, want a refusal saying %q", err, want)
		}
		if ds.c.Broken() {
			t.Fatalf("a refused answer (%s) broke the client", want)
		}
		if got := particle.RowSegmentsHeld(); got != held {
			t.Errorf("%d row segments held after a refusal (%s)", got-held, want)
		}
	}
	a, err := ds.Answer(req)
	if err != nil {
		t.Fatalf("the call after two refusals: %v", err)
	}
	if got := bytes.Join(a.Rows.Segments(), nil); !bytes.Equal(got, recs) {
		t.Errorf("the call after two refusals read %d bytes of rows, not the %d sent", len(got), len(recs))
	}
	a.Release()
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held", got-held)
	}
	if _, err := ds.Answer(req); err == nil {
		t.Error("a response without a whole header answered")
	}
	if !ds.c.Broken() {
		t.Error("a response whose header does not decode left the client usable")
	}
}

// TestRowCountBeyondFrameTakesNoSegment: a row count larger than the
// bytes left in the frame is refused on the count, before a segment is
// taken or a payload byte read — whatever the count, up to one whose
// payload size would overflow.
func TestRowCountBeyondFrameTakesNoSegment(t *testing.T) {
	held := particle.RowSegmentsHeld()
	stride := particle.Uintah().Stride()
	// Three records fit the frame's byte count but not its payload; the
	// larger counts exceed the bytes themselves and are refused before
	// their payload size is multiplied out.
	for n, want := range map[uint64]string{3: "buffer payload of", 1 << 40: "records exceeds", math.MaxUint64: "records exceeds"} {
		var fb bytes.Buffer
		e := binio.NewWriter(&fb)
		format.EncodeSchema(e, particle.Uintah())
		e.U64(n)
		e.Bytes(make([]byte, 2*stride)) // two records' bytes, whatever n says
		src := bytes.NewReader(fb.Bytes())
		rows, err := decodeRows(binio.NewReader(src, "spiod"), int64(fb.Len()))
		if err == nil || !strings.Contains(err.Error(), want) {
			rows.Release()
			t.Errorf("n=%d: decoded with %v, want %q", n, err, want)
		}
		if src.Len() != 2*stride {
			t.Errorf("n=%d: the refusal read %d payload bytes", n, 2*stride-src.Len())
		}
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held", got-held)
	}
}

// TestCutMidPayloadReleasesRows: a connection that ends inside an
// answer's payload, several segments long, fails the call, breaks the
// client, and leaves no row segment held.
func TestCutMidPayloadReleasesRows(t *testing.T) {
	held := particle.RowSegmentsHeld()
	n := 3*particle.RowBlock + 17
	ds := dialFake(t, scriptedPeer(t,
		scriptedResp{body: boxResp(t, uint64(n), make([]byte, n*particle.Uintah().Stride())), cut: true}))
	if _, err := ds.Answer(&rdr.Request{Op: rdr.OpQueryBox, Box: geom.UnitBox()}); err == nil {
		t.Fatal("an answer cut in half accepted")
	}
	if !ds.c.Broken() {
		t.Error("a cut connection left the client usable")
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held after the cut", got-held)
	}
}
