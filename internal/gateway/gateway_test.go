package gateway

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// writeDataset writes a uniform dataset into dir, mirroring the server
// package's test harness.
func writeDataset(t testing.TB, dir string, simDims, factor geom.Idx3, perRank int) {
	t.Helper()
	cfg := core.WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor},
		Seed: 21,
	}
	grid := geom.NewGrid(cfg.Agg.Domain, simDims)
	err := mpi.Run(simDims.Volume(), func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, 13, c.Rank())
		_, err := core.Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sockAddr returns a fresh, short unix socket address (unix socket
// paths are limited to ~100 bytes; t.TempDir can exceed that).
func sockAddr(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "spiogate")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return "unix:" + filepath.Join(dir, "s.sock")
}

func listenOn(t testing.TB, addr string) net.Listener {
	t.Helper()
	_, path, err := server.ParseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// serveSpiod serves dir as dataset "shard" from a fresh spiod on a fresh
// unix socket — wrapped by wrap, when the test wants a hand on its
// connections. Shutting it down is the caller's business.
func serveSpiod(t testing.TB, dir string, cfg server.Config, wrap func(net.Listener) net.Listener) (*server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	if err := s.Mount("shard", dir); err != nil {
		t.Fatal(err)
	}
	addr := sockAddr(t)
	l := listenOn(t, addr)
	if wrap != nil {
		l = wrap(l)
	}
	go func() { _ = s.Serve(l) }()
	// Probe until the accept loop is live: a Shutdown racing Serve's
	// listener registration would otherwise leave the socket accepting
	// into a backlog nobody drains.
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	return s, addr
}

// startBackend is serveSpiod with two workers and its shutdown in hand:
// run at cleanup, and callable early to simulate a backend going away.
func startBackend(t testing.TB, dir string) (addr string, shutdown func()) {
	t.Helper()
	s, addr := serveSpiod(t, dir, server.Config{Workers: 2}, nil)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // a second call finds the first one's drain
	}
	t.Cleanup(shutdown)
	return addr, shutdown
}

// splitShards splits the dataset at srcDir into n shard directories and
// starts one spiod per shard. It returns the specs for Mount and the
// per-shard shutdown funcs.
func splitShards(t testing.TB, srcDir string, n int) ([]ShardSpec, []func()) {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "shard")
	}
	if err := Split(srcDir, dirs); err != nil {
		t.Fatal(err)
	}
	specs := make([]ShardSpec, n)
	stops := make([]func(), n)
	for i, dir := range dirs {
		addr, stop := startBackend(t, dir)
		specs[i] = ShardSpec{Ref: "shard", Addrs: []string{addr}}
		stops[i] = stop
	}
	return specs, stops
}

// startGateway mounts the specs as "sim" and serves the gateway on a
// fresh unix socket.
func startGateway(t testing.TB, cfg Config, specs []ShardSpec) (*Gateway, string) {
	t.Helper()
	return serveGateway(t, cfg, specs, nil)
}

// serveGateway is startGateway with the front's listener wrapped by wrap.
func serveGateway(t testing.TB, cfg Config, specs []ShardSpec, wrap func(net.Listener) net.Listener) (*Gateway, string) {
	t.Helper()
	g := New(cfg)
	if err := g.Mount("sim", specs); err != nil {
		t.Fatal(err)
	}
	return g, serveOn(t, g, wrap)
}

// serveOn serves g's server on a fresh unix socket, its listener wrapped
// by wrap, until the test ends; then it drains the server and closes g's
// backend pools.
func serveOn(t testing.TB, g *Gateway, wrap func(net.Listener) net.Listener) string {
	t.Helper()
	addr := sockAddr(t)
	l := listenOn(t, addr)
	if wrap != nil {
		l = wrap(l)
	}
	go func() {
		if err := g.Serve(l); err != nil {
			t.Errorf("gateway Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("gateway Shutdown: %v", err)
		}
	})
	return addr
}

// records returns the buffer's particles as canonical-sorted encoded
// records. Sharding reorders files (Split deals them in Morton order),
// so gateway answers match single-node answers up to particle order —
// byte-identity is checked on the sorted record multiset.
func records(b *particle.Buffer) []string {
	stride := b.Schema().Stride()
	enc := b.Encode()
	recs := make([]string, b.Len())
	for i := range recs {
		recs[i] = string(enc[i*stride : (i+1)*stride])
	}
	sort.Strings(recs)
	return recs
}

func sameRecords(t *testing.T, what string, got, want *particle.Buffer) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: got %d particles, want %d", what, got.Len(), want.Len())
	}
	g, w := records(got), records(want)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: sorted record %d differs", what, i)
		}
	}
}

// TestGatewayProgressive: a level of a stream is a box read routed by its
// box, so it calls the shards whose files the box intersects and no
// others — what a stream through the gateway costs the backends. (Its
// bytes, level by level, are TestReadContract's.)
func TestGatewayProgressive(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 40)
	specs, _ := splitShards(t, src, 3)
	g, addr := startGateway(t, Config{}, specs)
	ds, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for q, shards := range map[geom.Box]int64{
		geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.2, 0.2, 0.2)): 1,
		ds.Meta().Domain: 3,
	} {
		st, err := ds.ProgressiveBox(q, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done() {
			before := g.srv.Snapshot().Fanout
			if _, _, err := st.NextLevel(); err != nil {
				t.Fatal(err)
			}
			if calls := g.srv.Snapshot().Fanout - before; calls != shards {
				t.Fatalf("level %d over %v made %d shard calls, want %d", st.Level()-1, q, calls, shards)
			}
		}
		if st.Level() < 2 || st.Stats().Partial {
			t.Errorf("stream over %v: %d levels, partial=%v", q, st.Level(), st.Stats().Partial)
		}
	}
}

// TestGatewayListsMountsSorted: a gateway lists its mounts in name order,
// as a spiod lists its own. [Gateway.List ranged over its map, so a list
// through a gateway came back in a new order per call.]
func TestGatewayListsMountsSorted(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 20)
	backend, _ := startBackend(t, src)
	g := New(Config{})
	for _, name := range []string{"f", "b", "e", "a", "d", "c"} {
		if err := g.Mount(name, []ShardSpec{{Ref: "shard", Addrs: []string{backend}}}); err != nil {
			t.Fatal(err)
		}
	}
	addr := sockAddr(t)
	l := listenOn(t, addr)
	go func() { _ = g.Serve(l) }()
	t.Cleanup(func() { _ = g.Shutdown(context.Background()) })
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if names, err := c.List(); err != nil || !slices.Equal(names, []string{"a", "b", "c", "d", "e", "f"}) {
			t.Fatalf("list %d: %v, %v; want the six mounts in name order", i, names, err)
		}
	}
}

// TestZeroAxisDensityIsRefused: a density grid with a zero axis passes
// the request bounds (zero dims are every other op's) but has no cells.
// It reached geom.NewGrid's panic and took the daemon down; a spiod and
// a 3-shard spiogate now refuse it and serve the connection's next
// request.
func TestZeroAxisDensityIsRefused(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 30)
	spiod, _ := startBackend(t, src)
	specs, _ := splitShards(t, src, 3)
	_, gate := startGateway(t, Config{}, specs)
	for _, c := range []struct{ name, addr, ref string }{{"spiod", spiod, "shard"}, {"spiogate", gate, "sim"}} {
		ds, err := server.OpenRemote(c.addr, c.ref)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if _, _, _, err := ds.DensityGrid(geom.I3(0, 4, 4), 0, 1); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s: zero-axis density grid: %v, want a refusal", c.name, err)
		}
		if counts, _, _, err := ds.DensityGrid(geom.I3(4, 4, 1), 0, 1); err != nil || len(counts) != 16 {
			t.Errorf("%s: the next request: %d cells, %v", c.name, len(counts), err)
		}
	}
}

// TestGatewayDeadShardPartial kills one of three backends and checks
// the contract: queries succeed with the partial flag set and the
// surviving shards' particles, instead of failing.
func TestGatewayDeadShardPartial(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 30)
	specs, stops := splitShards(t, src, 3)
	_, addr := startGateway(t, Config{CallTimeout: 5 * time.Second}, specs)

	remote, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domain := remote.Meta().Domain

	// Baseline with all shards up.
	full, st, err := remote.QueryBox(domain, rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial {
		t.Fatal("partial flag with all shards up")
	}

	stops[1]() // lose the middle shard

	got, st, err := remote.QueryBox(domain, rdr.Options{})
	if err != nil {
		t.Fatalf("query with dead shard: %v", err)
	}
	if !st.Partial {
		t.Fatal("dead shard: partial flag not set")
	}
	if got.Len() == 0 || got.Len() >= full.Len() {
		t.Fatalf("dead shard: got %d particles, want a non-empty strict subset of %d", got.Len(), full.Len())
	}

	// KNN degrades the same way.
	_, dists, st, err := remote.KNN(geom.V3(0.5, 0.5, 0.5), 8)
	if err != nil {
		t.Fatalf("knn with dead shard: %v", err)
	}
	if !st.Partial {
		t.Fatal("dead shard: KNN partial flag not set")
	}
	if len(dists) != 8 {
		t.Fatalf("knn with dead shard: got %d dists, want 8", len(dists))
	}
}

// TestGatewayReplicaFailover lists a shard on a dead primary plus a
// live replica: queries must succeed completely (no partial flag).
func TestGatewayReplicaFailover(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 50) // 1 file, 1 shard
	dir := filepath.Join(t.TempDir(), "shard")
	if err := Split(src, []string{dir}); err != nil {
		t.Fatal(err)
	}
	liveAddr, _ := startBackend(t, dir)
	deadAddr, deadStop := startBackend(t, dir)
	deadStop()

	_, addr := startGateway(t, Config{CallTimeout: 5 * time.Second},
		[]ShardSpec{{Ref: "shard", Addrs: []string{deadAddr, liveAddr}}})

	local, err := rdr.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	want, _, err := local.QueryBox(local.Meta().Domain, rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := remote.QueryBox(local.Meta().Domain, rdr.Options{})
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if st.Partial {
		t.Fatal("failover produced a partial result; replica should make it whole")
	}
	sameRecords(t, "failover box", got, want)
}

// TestGatewayDrainRouting drains a backend gracefully mid-session: the
// gateway's pooled connections receive the drain notice and the next
// query fails over to the replica without surfacing an error.
func TestGatewayDrainRouting(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 50)
	dir := filepath.Join(t.TempDir(), "shard")
	if err := Split(src, []string{dir}); err != nil {
		t.Fatal(err)
	}
	primaryAddr, primaryStop := startBackend(t, dir)
	replicaAddr, _ := startBackend(t, dir)

	_, addr := startGateway(t, Config{CallTimeout: 5 * time.Second},
		[]ShardSpec{{Ref: "shard", Addrs: []string{primaryAddr, replicaAddr}}})

	remote, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	domain := remote.Meta().Domain

	// Warm the pool: this query lands on the primary and leaves the
	// connection idle in the pool.
	if _, _, err := remote.QueryBox(domain, rdr.Options{}); err != nil {
		t.Fatal(err)
	}

	primaryStop() // graceful drain: idle pool conns get the drain notice

	// The pooled connection to the primary is now drained; the gateway
	// must discover that and retry on the replica, not error out.
	got, st, err := remote.QueryBox(domain, rdr.Options{})
	if err != nil {
		t.Fatalf("query across drain: %v", err)
	}
	if st.Partial {
		t.Fatal("drain surfaced as a partial result; replica should make it whole")
	}
	if got.Len() == 0 {
		t.Fatal("query across drain returned no particles")
	}
}

// TestSplitRoundTrip checks the shard datasets are each valid and
// together hold exactly the source's files and particles.
func TestSplitRoundTrip(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 25) // 4 files
	dirs := []string{
		filepath.Join(t.TempDir(), "a"),
		filepath.Join(t.TempDir(), "b"),
		filepath.Join(t.TempDir(), "c"),
	}
	if err := Split(src, dirs); err != nil {
		t.Fatal(err)
	}
	local, err := rdr.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, _, err := local.ReadAll(rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	union := particle.NewBuffer(local.Meta().Schema, 0)
	for _, dir := range dirs {
		ds, err := rdr.Open(dir)
		if err != nil {
			t.Fatalf("shard %s is not a valid dataset: %v", dir, err)
		}
		buf, _, err := ds.ReadAll(rdr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		total += ds.Meta().Total
		union.AppendBuffer(buf)
		ds.Close()
	}
	if total != local.Meta().Total {
		t.Fatalf("shard totals sum to %d, want %d", total, local.Meta().Total)
	}
	sameRecords(t, "split union", union, want)

	// More shards than files must refuse rather than write empty shards.
	many := make([]string, len(local.Meta().Files)+1)
	for i := range many {
		many[i] = filepath.Join(t.TempDir(), "x")
	}
	if err := Split(src, many); err == nil {
		t.Fatal("Split with more shards than files succeeded, want error")
	}
}
