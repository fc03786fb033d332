package gateway

import (
	"context"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spio/internal/geom"
	"spio/internal/israce"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// An answer crosses a server as rows in pooled segments, is read by the
// client into a pooled frame body and inflated into pooled segments
// again; only the columns the public API returns are the caller's own.
// The tests here hold that line from outside: nothing a caller is handed
// aliases memory that goes back to a pool, and every segment drawn is
// returned whatever way the request ends.

// mixedOps is the ownership mix: every query op, over four boxes.
func mixedOps() []*rdr.Request {
	boxes := []geom.Box{
		geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.5, 0.5, 1)),
		geom.NewBox(geom.V3(0.3, 0.2, 0), geom.V3(0.8, 0.7, 1)),
		geom.NewBox(geom.V3(0.45, 0.45, 0.2), geom.V3(0.55, 0.55, 0.8)),
		geom.UnitBox(),
	}
	var ops []*rdr.Request
	for _, b := range boxes {
		ops = append(ops,
			&rdr.Request{Op: rdr.OpQueryBox, Box: b},
			&rdr.Request{Op: rdr.OpQueryBox, Box: b, Options: rdr.Options{Fields: []string{"density"}}},
			// The second level of a progressive read.
			&rdr.Request{Op: rdr.OpQueryBox, Box: geom.UnitBox(), Options: rdr.Options{NoFilter: true, SkipLevels: 1, Levels: 2, Readers: 4}},
			&rdr.Request{Op: rdr.OpHalo, Box: b, Halo: 0.05},
			&rdr.Request{Op: rdr.OpKNN, Point: b.Center(), K: 8},
			&rdr.Request{Op: rdr.OpDensityGrid, Dims: geom.I3(4, 4, 2), Options: rdr.Options{Levels: 2, Readers: 4}},
		)
	}
	return ops
}

// mixedAnswer is what one op returned, held as a caller holds it: its
// particles as buffers, in a fixed order, and its float results.
type mixedAnswer struct {
	bufs   []*particle.Buffer
	floats []float64
}

// answer asks ds for req and keeps the answer as a mixedAnswer.
func answer(ds server.Dataset, req *rdr.Request) (mixedAnswer, error) {
	a, err := ds.Answer(req)
	if err != nil {
		return mixedAnswer{}, err
	}
	m := mixedAnswer{floats: append(a.Floats, a.Fraction)}
	for _, r := range []*particle.Rows{a.Rows, a.Ghost} {
		if r != nil {
			m.bufs = append(m.bufs, r.Buffer())
		}
	}
	return m, nil
}

// sameAnswer compares a held remote answer with the local truth. A
// gateway returns particles in shard order, so buffers compare as sorted
// record multisets.
func sameAnswer(got, want mixedAnswer) error {
	if len(got.bufs) != len(want.bufs) || len(got.floats) != len(want.floats) {
		return fmt.Errorf("%d buffers and %d floats, want %d and %d", len(got.bufs), len(got.floats), len(want.bufs), len(want.floats))
	}
	for i := range got.floats {
		if got.floats[i] != want.floats[i] {
			return fmt.Errorf("float %d is %v, want %v", i, got.floats[i], want.floats[i])
		}
	}
	for i := range got.bufs {
		if !got.bufs[i].Schema().Equal(want.bufs[i].Schema()) || got.bufs[i].Len() != want.bufs[i].Len() {
			return fmt.Errorf("buffer %d holds %d particles of %v, want %d of %v", i,
				got.bufs[i].Len(), got.bufs[i].Schema(), want.bufs[i].Len(), want.bufs[i].Schema())
		}
		g, w := records(got.bufs[i]), records(want.bufs[i])
		for j := range g {
			if g[j] != w[j] {
				return fmt.Errorf("buffer %d: sorted record %d differs", i, j)
			}
		}
	}
	return nil
}

// TestResultsDoNotAliasPooledMemory: 8 clients x 200 mixed ops through a
// spiod and through a 3-shard spiogate, every result held until the last
// op has been answered — by which time every pooled segment and frame
// body has been reused many times over — and only then compared with the
// local read. Under -race a result sharing memory with a pool would also
// be a reported race. At the end no row segment is held anywhere.
func TestResultsDoNotAliasPooledMemory(t *testing.T) {
	held := particle.RowSegmentsHeld()
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 100)
	local, err := rdr.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	ops := mixedOps()
	truth := make([]mixedAnswer, len(ops))
	for i, op := range ops {
		if truth[i], err = answer(local, op); err != nil {
			t.Fatalf("local op %d: %v", i, err)
		}
	}

	var stops []func()
	spiod, stop := startBackend(t, src)
	stops = append(stops, stop)
	specs, shardStops := splitShards(t, src, 3)
	stops = append(stops, shardStops...)
	g, gate := startGateway(t, Config{}, specs)

	for name, dep := range map[string]struct{ addr, ref string }{
		"spiod":    {spiod, "shard"},
		"spiogate": {gate, "sim"},
	} {
		const clients, perClient = 8, 200
		answers := make([][]mixedAnswer, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ds, err := server.OpenRemote(dep.addr, dep.ref)
				if err != nil {
					t.Errorf("%s client %d: %v", name, c, err)
					return
				}
				defer ds.Close()
				for j := 0; j < perClient; j++ {
					a, err := answer(ds, ops[(c*7+j)%len(ops)])
					if err != nil {
						t.Errorf("%s client %d op %d: %v", name, c, j, err)
						return
					}
					answers[c] = append(answers[c], a)
				}
			}(c)
		}
		wg.Wait()
		for c := range answers {
			for j, a := range answers[c] {
				if err := sameAnswer(a, truth[(c*7+j)%len(ops)]); err != nil {
					t.Fatalf("%s client %d op %d (%+v): held result differs from the local read: %v",
						name, c, j, ops[(c*7+j)%len(ops)], err)
				}
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, stop := range stops {
		stop()
	}
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held after every server has drained", got-held)
	}
}

// cutListener hands out connections that count the bytes written to
// them and, once armed, break in the middle of the next write of at least
// armed bytes: half of it goes out, then the connection closes — a
// backend dying while it sends an answer.
type cutListener struct {
	net.Listener
	armed   atomic.Int64
	cuts    atomic.Int64
	written atomic.Int64
}

// over puts the listener in front of l.
func (l *cutListener) over(inner net.Listener) net.Listener {
	l.Listener = inner
	return l
}

func (l *cutListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: c, l: l}, nil
}

type cutConn struct {
	net.Conn
	l *cutListener
}

func (c *cutConn) Write(p []byte) (int, error) {
	if min := c.l.armed.Load(); min == 0 || int64(len(p)) < min {
		c.l.written.Add(int64(len(p)))
		return c.Conn.Write(p)
	}
	c.l.cuts.Add(1)
	n, _ := c.Conn.Write(p[:len(p)/2])
	_ = c.Conn.Close() // the write error below is the one reported
	return n, net.ErrClosed
}

// TestLosingReplicaReleasesRows: a shard's primary dies halfway through
// sending its answer, the gateway's call fails in the middle of a frame
// and is retried on the replica, and the client gets the whole answer.
// Neither the primary's unsent rows, nor the gateway's half-read frame,
// nor the losing attempt's result leave a row segment held.
func TestLosingReplicaReleasesRows(t *testing.T) {
	held := particle.RowSegmentsHeld()
	src := t.TempDir()
	writeDataset(t, src, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 400) // 1 file, 1 shard, ~200 KB
	dir := filepath.Join(t.TempDir(), "shard")
	if err := Split(src, []string{dir}); err != nil {
		t.Fatal(err)
	}
	cut := &cutListener{}
	primary, primaryAddr := serveSpiod(t, dir, server.Config{}, cut.over)
	replicaAddr, stopReplica := startBackend(t, dir)

	g, addr := startGateway(t, Config{CallTimeout: 5 * time.Second, FailThreshold: 100},
		[]ShardSpec{{Ref: "shard", Addrs: []string{primaryAddr, replicaAddr}}})
	local, err := rdr.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	domain := local.Meta().Domain
	wantBox, _, err := local.QueryBox(domain, rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOwn, wantGhost, _, err := local.Halo(geom.NewBox(geom.V3(0.2, 0.2, 0), geom.V3(0.8, 0.8, 1)), 0.1, rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cut.armed.Store(16 << 10) // the answers, not the statuses
	for round := 0; round < 3; round++ {
		got, st, err := remote.QueryBox(domain, rdr.Options{})
		if err != nil || st.Partial {
			t.Fatalf("box with a dying primary: partial=%v err=%v", st.Partial, err)
		}
		sameRecords(t, "failover box", got, wantBox)
		own, ghost, st, err := remote.Halo(geom.NewBox(geom.V3(0.2, 0.2, 0), geom.V3(0.8, 0.8, 1)), 0.1, rdr.Options{})
		if err != nil || st.Partial {
			t.Fatalf("halo with a dying primary: partial=%v err=%v", st.Partial, err)
		}
		sameRecords(t, "failover halo own", own, wantOwn)
		sameRecords(t, "failover halo ghost", ghost, wantGhost)
	}
	if cut.cuts.Load() == 0 {
		t.Fatal("the primary never died mid-answer: the test did not test the failover")
	}
	if got := g.srv.Snapshot().ShardErrors; got != 0 {
		t.Errorf("%d shard errors: a failover is not one", got)
	}

	_ = remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := primary.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	stopReplica()
	if got := particle.RowSegmentsHeld(); got != held {
		t.Errorf("%d row segments still held after a losing replica", got-held)
	}
}

// TestAnswerCostsItsRows, through a gateway over three shards: the frame
// its front puts on the socket for a merged answer — several row
// segments, from several shards — is the answer's bytes plus a header of
// at most 1 KiB, as a spiod's is (internal/server has the matrix).
func TestAnswerCostsItsRows(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 800) // 12800 particles, 1.6 MB
	specs, _ := splitShards(t, src, 3)
	front := &cutListener{}
	_, gate := serveGateway(t, Config{}, specs, front.over)
	ds, err := server.OpenRemote(gate, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	domain := ds.Meta().Domain
	patch := geom.NewBox(geom.V3(0.2, 0.2, 0), geom.V3(0.8, 0.8, 1))
	front.written.Store(0) // the hello's ack and the metadata
	for _, fields := range [][]string{nil, {particle.PositionField}} {
		opts := rdr.Options{Fields: fields}
		// costs checks what the front wrote since the last check against
		// the user bytes of the answer it was.
		costs := func(what string, user int64) {
			t.Helper()
			frame := front.written.Swap(0)
			if head := frame - user; user < 1<<16 || head < 0 || head > 1<<10 {
				t.Errorf("%s, fields %v: %d bytes on the socket for %d of answer", what, fields, frame, user)
			}
		}
		box, _, err := ds.QueryBox(domain, opts)
		if err != nil {
			t.Fatal(err)
		}
		costs("box", box.Bytes())
		knn, dists, _, err := ds.KNN(domain.Center(), 9000)
		if err != nil {
			t.Fatal(err)
		}
		costs("knn", knn.Bytes()+8*int64(len(dists)))
		own, ghost, _, err := ds.Halo(patch, 0.1, opts)
		if err != nil {
			t.Fatal(err)
		}
		costs("halo", own.Bytes()+ghost.Bytes())
	}
}

// leastAllocPerRun returns the least the whole process allocates for one
// call of fn in steady state: pools warmed by ten calls, the collector off
// so a cycle cannot empty them mid-measurement, and the least of the
// measured calls. What a call allocates above its floor is pool misses —
// a whole 4 MiB frame body or 1 MiB row segment each, likelier the more
// Ps share two cores — while anything a change adds to the floor shows in
// every call.
func leastAllocPerRun(fn func()) int64 {
	for i := 0; i < 10; i++ {
		fn()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := int64(math.MaxInt64)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// TestServeAllocationBudget is TestReadAllocationBudget's serving twin:
// what a remote QueryBox allocates — server, client and everything
// between, all in this process — is the answer, however many hands it
// passed through. The answer's columns are allocated once, at the
// client's edge; rows and frame bodies live in pools. The floor is 1.02
// answers through a spiod and through a gateway alike (the rest is the
// stats, headers and selection vectors of each hop), so a quarter of an
// answer is the budget for anything else: one more copy of the answer
// anywhere on the way fails it. Before answers travelled as rows the same
// query cost about 6.5 answers through a spiod and 13 through a gateway.
func TestServeAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 2, 1), geom.I3(2, 2, 1), 8192) // 2 files of 4 MB
	spiod, _ := startBackend(t, src)
	specs, _ := splitShards(t, src, 2)
	_, gate := startGateway(t, Config{}, specs)
	q := geom.NewBox(geom.V3(0.3, 0.2, 0.1), geom.V3(0.7, 0.8, 0.9)) // straddles both files

	for _, c := range []struct{ name, addr, ref string }{
		{"spiod", spiod, "shard"},
		{"spiogate", gate, "sim"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds, err := server.OpenRemote(c.addr, c.ref)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			var answer int64
			got := leastAllocPerRun(func() {
				buf, _, err := ds.QueryBox(q, rdr.Options{})
				if err != nil {
					t.Fatal(err)
				}
				answer = buf.Bytes()
			})
			if answer < 1<<20 {
				t.Fatalf("the box keeps %d bytes; the test wants an answer its bookkeeping does not drown", answer)
			}
			t.Logf("remote QueryBox: %d bytes allocated for a %d-byte answer (%.2fx)", got, answer, float64(got)/float64(answer))
			if budget := answer + answer/4; got > budget {
				t.Errorf("remote QueryBox allocates %d bytes for a %d-byte answer; budget %d", got, answer, budget)
			}
		})
	}
}
