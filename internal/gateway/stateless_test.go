package gateway

import (
	"bytes"
	"context"
	"errors"
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
	gw              *Gateway // nil for the spiod
}

// idleCursors idle streams used to exhaust either daemon of bothDaemons.
const idleCursors = 2

// bothDaemons writes a dataset and serves it from a spiod and from a
// gateway over three shards of it.
func bothDaemons(t *testing.T) []daemon {
	t.Helper()
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 40)
	s, spiod := serveSpiod(t, src, server.Config{Workers: idleCursors}, nil)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	specs, _ := splitShards(t, src, 3)
	g, gate := startGateway(t, Config{PoolSize: idleCursors}, specs)
	return []daemon{{"spiod", spiod, "shard", s.Shutdown, nil}, {"spiogate", gate, "sim", g.Shutdown, g}}
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
func (d daemon) idleCursor(t *testing.T) *server.RemoteStream {
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
	for _, d := range bothDaemons(t) {
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
	for _, d := range bothDaemons(t) {
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
	for _, d := range bothDaemons(t) {
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
			ps, addr := serveSpiod(t, dirs[0], server.Config{}, primary)
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
