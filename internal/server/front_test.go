package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// fakeBackend drives the Front alone: one dataset, "fake", that answers
// every query with a canned buffer, whatever it asks for — a box read
// with the buffer, a KNN or a halo with the buffer twice over, so that a
// budget the buffer fits refuses both. hook, when set, runs at the start
// of every answer (a test blocks there to hold a worker); err, when set,
// is what every query returns.
type fakeBackend struct {
	buf  *particle.Buffer
	hook func()

	mu  sync.Mutex
	err error
}

func (b *fakeBackend) setErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.err = err
}

func newFakeBackend(records int) *fakeBackend {
	buf := particle.NewBuffer(particle.Uintah(), records)
	if err := buf.DecodeRecords(make([]byte, records*buf.Schema().Stride())); err != nil {
		panic(err)
	}
	return &fakeBackend{buf: buf}
}

func (b *fakeBackend) Resolve(ref string) (Dataset, error) {
	if ref != "fake" {
		return nil, fmt.Errorf("fake: no dataset %q", ref)
	}
	return fakeDataset{b}, nil
}
func (b *fakeBackend) List() []string    { return []string{"fake"} }
func (b *fakeBackend) StatsJSON() []byte { return []byte(`{"fake":true}`) }

type fakeDataset struct{ b *fakeBackend }

func (fakeDataset) Meta() *format.Meta {
	return &format.Meta{Domain: geom.UnitBox(), Schema: particle.Uintah()}
}

func (d fakeDataset) Answer(req *rdr.Request) (*rdr.Answer, error) {
	if d.b.hook != nil {
		d.b.hook()
	}
	d.b.mu.Lock()
	defer d.b.mu.Unlock()
	if d.b.err != nil {
		return nil, d.b.err
	}
	rows := d.b.buf.Rows
	switch req.Op {
	case rdr.OpDensityGrid:
		return &rdr.Answer{Floats: []float64{1}, Fraction: 1, Sampled: 1}, nil
	case rdr.OpKNN:
		a := &rdr.Answer{Rows: rows(), Floats: make([]float64, 2*d.b.buf.Len())}
		a.Rows.Append(rows())
		return a, nil
	case rdr.OpHalo:
		return &rdr.Answer{Rows: rows(), Ghost: rows()}, nil
	}
	return &rdr.Answer{Rows: rows()}, nil
}

// dialFake connects a client to a front over a fakeBackend and attaches
// the fake dataset without the opMeta round trip.
func dialFake(t *testing.T, addr string) *RemoteDataset {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.Attach("fake", fakeDataset{}.Meta())
}

func TestFrontOverloadFastFail(t *testing.T) {
	b := newFakeBackend(4)
	entered, release := make(chan struct{}), make(chan struct{})
	b.hook = func() { entered <- struct{}{}; <-release }
	f := NewFront(Config{Workers: 1, QueueDepth: 1}, b)
	addr := startServer(t, f)

	results := make(chan error, 2)
	query := func() {
		_, _, err := dialFake(t, addr).QueryBox(geom.UnitBox(), rdr.Options{})
		results <- err
	}
	go query()
	<-entered // the only worker is now held inside the backend
	go query()
	for f.adm.waiting.Load() != 1 { // the only queue slot is now taken
		time.Sleep(time.Millisecond)
	}
	if _, _, err := dialFake(t, addr).QueryBox(geom.UnitBox(), rdr.Options{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request with worker and queue full: %v, want ErrOverloaded", err)
	}
	close(release)
	<-entered // the queued request reaches the backend once the worker frees
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request: %v", err)
		}
	}
	if got := f.Snapshot(); got.Overloaded != 1 || got.Requests != 2 {
		t.Errorf("counters: overloaded=%d requests=%d, want 1 and 2", got.Overloaded, got.Requests)
	}
}

func TestFrontBudgetAndErrorStatus(t *testing.T) {
	b := newFakeBackend(64)
	f := NewFront(Config{MaxRespBytes: b.buf.Bytes() + 1}, b)
	addr := startServer(t, f)
	ds := dialFake(t, addr)

	// One buffer fits the budget, the two of a halo or a KNN answer do
	// not: every particle answer is held to it.
	if _, _, err := ds.QueryBox(geom.UnitBox(), rdr.Options{}); err != nil {
		t.Fatalf("box within budget: %v", err)
	}
	if _, _, _, err := ds.Halo(geom.UnitBox(), 0.1, rdr.Options{}); !errors.Is(err, ErrBudget) {
		t.Fatalf("halo over budget: %v, want ErrBudget", err)
	}
	if _, _, _, err := ds.KNN(geom.V3(0, 0, 0), 1); !errors.Is(err, ErrBudget) {
		t.Fatalf("knn over budget: %v, want ErrBudget", err)
	}
	// Backend errors keep their status across the front: what a shard
	// refused a gateway with reaches the gateway's client as the same error.
	for _, want := range []error{ErrBudget, ErrOverloaded, ErrDraining} {
		b.setErr(fmt.Errorf("shard 2: %w", want))
		if _, _, _, err := ds.KNN(geom.V3(0, 0, 0), 1); !errors.Is(err, want) {
			t.Errorf("backend error %v reached the client as %v", want, err)
		}
		if want == ErrDraining {
			break // a draining status breaks the client connection by design
		}
	}
	ds = dialFake(t, addr)
	b.setErr(errors.New("fake: bad query"))
	if _, _, err := ds.QueryBox(geom.UnitBox(), rdr.Options{}); err == nil || !strings.Contains(err.Error(), "bad query") {
		t.Errorf("plain backend error: %v", err)
	}
	b.setErr(nil)
	if _, err := ds.c.Open("nope"); err == nil || !strings.Contains(err.Error(), `no dataset "nope"`) {
		t.Errorf("unresolvable reference: %v", err)
	}
	if got := f.Snapshot().Errors; got != 7 {
		t.Errorf("errors counted: %d, want 7", got)
	}
}

func TestFrontUnknownOp(t *testing.T) {
	f := NewFront(Config{}, newFakeBackend(4))
	ds := dialFake(t, startServer(t, f))
	if err := ds.c.call("fake", &rdr.Request{Op: 99}, nil); err == nil || !strings.Contains(err.Error(), "unknown op 99") {
		t.Fatalf("op 99: %v", err)
	}
	// A refused op is a completed exchange: the connection carries on.
	names, err := ds.c.List()
	if err != nil || len(names) != 1 || names[0] != "fake" {
		t.Fatalf("list after a refused op: %v %v", names, err)
	}
	if blob, err := ds.c.Stats(); err != nil || string(blob) != `{"fake":true}` {
		t.Fatalf("stats: %q %v", blob, err)
	}
}

// TestFrontDrain drains a front with one request in flight and one
// client idle: the request is answered, a request arriving during the
// drain is refused with ErrDraining, the idle connection is told so too
// (the drain notice), and Shutdown returns only after the request
// finished.
func TestFrontDrain(t *testing.T) {
	b := newFakeBackend(4)
	entered, release := make(chan struct{}), make(chan struct{})
	b.hook = func() { entered <- struct{}{}; <-release }
	f := NewFront(Config{}, b)
	addr := startServer(t, f)
	busy, during, idle := dialFake(t, addr), dialFake(t, addr), dialFake(t, addr)

	inflight := make(chan error, 1)
	go func() {
		_, _, err := busy.QueryBox(geom.UnitBox(), rdr.Options{})
		inflight <- err
	}()
	<-entered // the request is inside the backend
	drained := make(chan error, 1)
	go func() { drained <- f.Shutdown(context.Background()) }()
	<-f.stop

	if _, _, err := during.QueryBox(geom.UnitBox(), rdr.Options{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("request during drain: %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned with a request still in flight: %v", err)
	default:
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("request in flight when the drain began: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The idle connection was closed behind a statusDraining notice.
	if _, _, err := idle.QueryBox(geom.UnitBox(), rdr.Options{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("idle client after drain: %v, want ErrDraining", err)
	}
	// A second Shutdown waits for (here: finds) the same finished drain.
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := f.Serve(nil); !errors.Is(err, errDraining) {
		t.Fatalf("Serve after drain: %v", err)
	}
}

// TestFrontBadHello: every hello that is not this version's is answered
// with a status frame saying why and a closed connection, inside the
// deadline — a hello of another version with the version message,
// whatever that version put behind the version field.
func TestFrontBadHello(t *testing.T) {
	f := NewFront(Config{}, newFakeBackend(4))
	_, path, err := ParseAddr(startServer(t, f))
	if err != nil {
		t.Fatal(err)
	}
	// helloOf is a hello of the given version with tail behind it.
	helloOf := func(version uint32, tail ...byte) []byte {
		var fb bytes.Buffer
		encodeHello(binio.NewWriter(&fb), &hello{Version: version})
		return append(fb.Bytes(), tail...)
	}
	unsupported := func(version uint32) string {
		return fmt.Sprintf("protocol version %d not supported (want %d)", version, protoVersion)
	}
	for _, c := range []struct {
		name  string
		hello []byte
		want  string
	}{
		{"bad magic", append([]byte("NOTSPIO!"), helloOf(protoVersion)[len(protoMagic):]...), "not a spio serving connection"},
		{"next version, same shape", helloOf(protoVersion + 1), unsupported(protoVersion + 1)},
		// What a v5 client sends, byte for byte: magic, 5, the codec it
		// asks for, its feature bits.
		{"v5", helloOf(5, 1, 0x0f, 0, 0, 0), unsupported(5)},
		{"next version, another length", helloOf(protoVersion+1, make([]byte, 23)...), unsupported(protoVersion + 1)},
		{"truncated inside the version", helloOf(protoVersion)[:len(protoMagic)+2], "short read"},
		{"trailing bytes", helloOf(protoVersion, 0), "1 bytes after the hello"},
	} {
		conn, err := net.Dial("unix", path)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := sendBody(conn, c.hello); err != nil {
			t.Fatal(err)
		}
		body, err := recvBody(conn, 1<<16)
		if err != nil {
			t.Fatalf("%s: no status frame: %v", c.name, err)
		}
		h, err := decodeRespHeader(binio.NewReader(bytes.NewReader(body), "spiod"))
		if err != nil {
			t.Fatal(err)
		}
		if h.Status != statusError || !strings.Contains(h.Msg, c.want) {
			t.Errorf("%s: answered with status %d %q, want an error saying %q", c.name, h.Status, h.Msg, c.want)
		}
		// The front hangs up after refusing a hello.
		if _, err := recvBody(conn, 1<<16); !errors.Is(err, io.EOF) {
			t.Errorf("%s: connection not closed after the refusal: %v", c.name, err)
		}
		_ = conn.Close()
	}
}

// TestRequestWithTrailingBytesRefused: like a hello, a request frame with
// bytes behind the decoded request is refused with a status saying so,
// and the front hangs up.
func TestRequestWithTrailingBytesRefused(t *testing.T) {
	f := NewFront(Config{}, newFakeBackend(4))
	_, path, err := ParseAddr(startServer(t, f))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var fb bytes.Buffer
	encodeHello(binio.NewWriter(&fb), &hello{Version: protoVersion})
	if err := sendBody(conn, fb.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := recvBody(conn, 1<<16); err != nil {
		t.Fatal(err)
	}
	fb.Reset()
	encodeRequest(binio.NewWriter(&fb), "fake", &rdr.Request{Op: opList})
	fb.WriteByte(0)
	if err := sendBody(conn, fb.Bytes()); err != nil {
		t.Fatal(err)
	}
	body, err := recvBody(conn, 1<<16)
	if err != nil {
		t.Fatalf("no status frame: %v", err)
	}
	h, err := decodeRespHeader(binio.NewReader(bytes.NewReader(body), "spiod"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "1 bytes after the request"; h.Status != statusError || !strings.Contains(h.Msg, want) {
		t.Errorf("answered with status %d %q, want an error saying %q", h.Status, h.Msg, want)
	}
	if _, err := recvBody(conn, 1<<16); !errors.Is(err, io.EOF) {
		t.Errorf("connection not closed after the refusal: %v", err)
	}
}
