package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// A served read is one request and one response: a progressive stream is
// a cursor its client holds, and between two of its levels neither daemon
// holds anything for it. The tests here hold that from outside, on a spiod
// and through a 3-shard spiogate; each names, in brackets, what happened
// while a stream was a session of its own on the wire.

// daemon is one of the two ways a dataset is served.
type daemon struct {
	name, addr, ref string
	shutdown        func(ctx context.Context) error
	conns           func() int64 // the front's active_conns
	gw              *Gateway     // nil for the spiod
}

// idleCursors idle streams used to exhaust either daemon of bothDaemons.
const idleCursors = 2

// bothDaemons writes a dataset and serves it from a spiod and from a
// gateway over three shards of it, the listeners their clients dial
// wrapped by wrap when the test wants a hand on those connections.
func bothDaemons(t *testing.T, wrap func(net.Listener) net.Listener) []daemon {
	t.Helper()
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 40)
	s, spiod := serveSpiod(t, src, server.Config{Workers: idleCursors}, wrap)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	specs, _ := splitShards(t, src, 3)
	g, gate := serveGateway(t, Config{PoolSize: idleCursors}, specs, wrap)
	return []daemon{
		{"spiod", spiod, "shard", s.Shutdown, func() int64 { return s.Snapshot().ActiveConns }, nil},
		{"spiogate", gate, "sim", g.Shutdown, func() int64 { return g.front.Snapshot().ActiveConns }, g},
	}
}

// open dials d with a call timeout: what used to hang fails instead.
func (d daemon) open(t *testing.T) *server.RemoteDataset {
	t.Helper()
	ds, err := server.OpenRemote(d.addr, d.ref, server.WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// idleCursor takes one level of a stream over the whole domain on a
// connection of its own and leaves it there, unfinished.
func (d daemon) idleCursor(t *testing.T) *rdr.Stream {
	t.Helper()
	ds := d.open(t)
	st, err := ds.ProgressiveBox(ds.Meta().Domain, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.NextLevel(); err != nil || !ok || st.Done() {
		t.Fatalf("first level: ok=%v done=%v err=%v; the test needs a stream left open", ok, st.Done(), err)
	}
	return st
}

// levelsOf reads a whole stream over the domain, each level encoded.
func levelsOf(t *testing.T, ds *server.RemoteDataset, readers int) [][]byte {
	t.Helper()
	var levels [][]byte
	st, err := ds.ProgressiveBox(ds.Meta().Domain, 0, readers)
	for err == nil && !st.Done() {
		var buf *particle.Buffer
		if buf, _, err = st.NextLevel(); err == nil {
			levels = append(levels, buf.Encode())
		}
	}
	if err != nil || len(levels) < 3 {
		t.Fatalf("reference stream: %d levels, %v", len(levels), err)
	}
	return levels
}

// TestIdleCursorsHoldNothing: as many clients as the spiod has workers, or
// the gateway connections to a backend, take one level each and go idle;
// another client still opens the dataset and has a box answered inside its
// call timeout. [Each idle stream held a worker slot, and a pooled
// connection per shard, until its client came back.]
func TestIdleCursorsHoldNothing(t *testing.T) {
	for _, d := range bothDaemons(t, nil) {
		t.Run(d.name, func(t *testing.T) {
			for i := 0; i < idleCursors; i++ {
				d.idleCursor(t)
			}
			other := d.open(t)
			got, st, err := other.QueryBox(other.Meta().Domain, rdr.Options{})
			if err != nil || st.Partial || int64(got.Len()) != other.Meta().Total {
				t.Fatalf("box beside %d idle cursors: partial=%v err=%v", idleCursors, st.Partial, err)
			}
		})
	}
}

// TestQueriesBetweenLevels: between any two levels of a stream the same
// RemoteDataset answers a box query, a KNN and the first level of a second
// stream, and the first stream's levels are the bytes they would have
// been. [A stream owned its client's lock from open to end: the box query
// never returned.]
func TestQueriesBetweenLevels(t *testing.T) {
	for _, d := range bothDaemons(t, nil) {
		t.Run(d.name, func(t *testing.T) {
			ds := d.open(t)
			q := ds.Meta().Domain
			want := levelsOf(t, d.open(t), 2)
			st, _ := ds.ProgressiveBox(q, 0, 2) // levelsOf opened the like
			for l := range want {
				if got, _, err := st.NextLevel(); err != nil || !bytes.Equal(got.Encode(), want[l]) {
					t.Fatalf("level %d of the interleaved stream is not the uninterrupted one's: %v", l, err)
				}
				if box, _, err := ds.QueryBox(q, rdr.Options{}); err != nil || int64(box.Len()) != ds.Meta().Total {
					t.Fatalf("box query after level %d: %v", l, err)
				}
				if _, dists, _, err := ds.KNN(q.Center(), 8); err != nil || len(dists) != 8 {
					t.Fatalf("KNN after level %d: %d neighbours, %v", l, len(dists), err)
				}
				second, _ := ds.ProgressiveBox(q, 0, 2)
				if first, _, err := second.NextLevel(); err != nil || !bytes.Equal(first.Encode(), want[0]) {
					t.Fatalf("a second stream after level %d: %v", l, err)
				}
			}
			if !st.Done() {
				t.Errorf("interleaved stream not done after %d levels", len(want))
			}
		})
	}
}

// TestShutdownWithAbandonedCursor: a daemon with a cursor outstanding —
// one level taken, its client gone quiet — shuts down at once, the
// cursor's next level is turned away with ErrDraining like any request and
// leaves it where it was, and a gateway's backend pools end up closed.
// [The drain waited for a stream's last level, so an abandoned one held
// Shutdown to its deadline.]
func TestShutdownWithAbandonedCursor(t *testing.T) {
	for _, d := range bothDaemons(t, nil) {
		t.Run(d.name, func(t *testing.T) {
			st := d.idleCursor(t)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.shutdown(ctx); err != nil {
				t.Fatalf("Shutdown with an abandoned cursor: %v", err)
			}
			if _, _, err := st.NextLevel(); !errors.Is(err, server.ErrDraining) || st.Done() || st.Level() != 1 {
				t.Fatalf("the cursor's next level after the drain: %v (level %d), want ErrDraining", err, st.Level())
			}
			if d.gw == nil {
				return
			}
			for addr, be := range d.gw.backends {
				if _, err := be.pool.Get(); !errors.Is(err, server.ErrPoolClosed) {
					t.Errorf("backend %s: pool still open after Shutdown (Get: %v)", addr, err)
				}
			}
		})
	}
}

// hurried wraps a listener so that a read deadline set on one of its
// connections expires after at most in: the front's hello deadline at
// test speed. Only deadlines up to a minute ahead are hurried — a front
// that would wait longer than that for a hello fails the test like one
// that waits for ever.
func hurried(in time.Duration) func(net.Listener) net.Listener {
	return func(l net.Listener) net.Listener { return hurriedListener{l, in} }
}

type hurriedListener struct {
	net.Listener
	in time.Duration
}

func (l hurriedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return hurriedConn{c, l.in}, nil
}

type hurriedConn struct {
	net.Conn
	in time.Duration
}

func (c hurriedConn) SetReadDeadline(t time.Time) error {
	if wait := time.Until(t); !t.IsZero() && wait > c.in && wait <= time.Minute {
		t = time.Now().Add(c.in)
	}
	return c.Conn.SetReadDeadline(t)
}

// TestSilentPeerIsDropped: a peer that connects and says nothing is hung
// up on when the hello deadline runs out, and active_conns is back at 0;
// a peer that has said hello may stay silent as long as it likes. [The
// hello was read without a deadline: a silent peer held a handler
// goroutine, a descriptor and an active_conns count until the drain.]
func TestSilentPeerIsDropped(t *testing.T) {
	const in = 50 * time.Millisecond
	for _, d := range bothDaemons(t, hurried(in)) {
		t.Run(d.name, func(t *testing.T) {
			_, path, err := server.ParseAddr(d.addr)
			if err != nil {
				t.Fatal(err)
			}
			silent, err := net.Dial("unix", path)
			if err != nil {
				t.Fatal(err)
			}
			defer silent.Close()
			_ = silent.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := silent.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
				t.Fatalf("a peer that never said hello read %d bytes, %v; want the daemon to have hung up", n, err)
			}
			for deadline := time.Now().Add(5 * time.Second); d.conns() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("active_conns still %d after the silent peer was dropped", d.conns())
				}
			}
			idle := d.open(t)
			time.Sleep(4 * in) // the deadline, had it outlived the hello, has run out
			if _, _, err := idle.QueryBox(idle.Meta().Domain, rdr.Options{}); err != nil {
				t.Fatalf("a peer silent after its hello: %v; the deadline is the hello's alone", err)
			}
		})
	}
}

// TestGatewayStreamSurvivesReplicaLoss: after a stream's first level a
// shard's primary dies, as often as it is asked for anything. With a
// replica listed, the remaining levels arrive complete and unflagged: a
// level is a read, and a read is retried on the next replica (withShard).
// With none, the lost shard's part of every remaining level is missing
// and flagged, and the survivor keeps refining to the end. [The gateway
// held a stream per shard, and a shard lost mid-stream dropped out whether
// or not it had a replica.]
func TestGatewayStreamSurvivesReplicaLoss(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 40)
	dirs := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	if err := Split(src, dirs); err != nil {
		t.Fatal(err)
	}
	for name, replicated := range map[string]bool{"replica": true, "single": false} {
		t.Run(name, func(t *testing.T) {
			primary := &cutListener{}
			ps, addr := serveSpiod(t, dirs[0], server.Config{}, primary.over)
			t.Cleanup(func() { _ = ps.Shutdown(context.Background()) })
			lost := ShardSpec{Ref: "shard", Addrs: []string{addr}}
			if replicated {
				replica, _ := startBackend(t, dirs[0])
				lost.Addrs = append(lost.Addrs, replica)
			}
			other, _ := startBackend(t, dirs[1])
			g, gate := startGateway(t, Config{CallTimeout: 5 * time.Second},
				[]ShardSpec{lost, {Ref: "shard", Addrs: []string{other}}})
			ds, err := server.OpenRemote(gate, "sim")
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			want := levelsOf(t, ds, 1)

			st, _ := ds.ProgressiveBox(ds.Meta().Domain, 0, 1)
			for l := range want {
				got, _, err := st.NextLevel()
				if err != nil {
					t.Fatalf("level %d: %v", l, err)
				}
				switch enc := got.Encode(); {
				case l == 0:
					primary.armed.Store(1) // from here on it dies in the middle of whatever it sends
				case replicated && !bytes.Equal(enc, want[l]):
					t.Fatalf("level %d after the loss is not the level the replica holds", l)
				case !replicated && (len(enc) == 0 || len(enc) >= len(want[l]) || !bytes.HasSuffix(want[l], enc)):
					// Shard order: the survivor's rows are the tail of the level.
					t.Fatalf("level %d without the lost shard: %d bytes of %d, want the surviving shard's", l, len(enc), len(want[l]))
				}
			}
			if errs := g.metrics.shardErrors.Load(); !st.Done() || st.Stats().Partial == replicated || (errs == 0) != replicated {
				t.Errorf("after the loss: done=%v partial=%v, %d shard errors", st.Done(), st.Stats().Partial, errs)
			}
		})
	}
}
