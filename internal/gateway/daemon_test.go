package gateway

import (
	"slices"
	"testing"
	"time"

	"spio/internal/geom"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// TestOneDaemonServesLocalAndShardedMounts: one server serves a local
// mount and a 3-shard mount of the same dataset, over one connection, and
// both answer a box and a KNN as the local reader does. The two kinds of
// mount share the server's names, list and metrics snapshot.
func TestOneDaemonServesLocalAndShardedMounts(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 40)
	specs, _ := splitShards(t, src, 3)
	srv := server.New(server.Config{})
	if err := srv.Mount("local", src); err != nil {
		t.Fatal(err)
	}
	g := On(srv, Config{})
	if err := g.Mount("sim", specs); err != nil {
		t.Fatal(err)
	}
	if err := g.Mount("local", specs); err == nil {
		t.Error("a sharded mount took a local mount's name")
	}
	if err := srv.Mount("sim", src); err == nil {
		t.Error("a local mount took a sharded mount's name")
	}
	if err := g.Mount("sim@3", specs); err == nil {
		t.Error("a sharded mount took the name sim@3")
	}
	addr := serveOn(t, g, nil)

	ref, err := rdr.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	box := geom.NewBox(geom.V3(0.1, 0.2, 0.3), geom.V3(0.6, 0.7, 0.9))
	p := geom.V3(0.4, 0.5, 0.5)
	wantBox, _, err := rdr.QueryBox(ref, box, rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, wantDists, _, err := rdr.KNN(ref, p, 16)
	if err != nil {
		t.Fatal(err)
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if names, err := c.List(); err != nil || !slices.Equal(names, []string{"local", "sim"}) {
		t.Fatalf("list: %v, %v; want [local sim]", names, err)
	}
	for _, name := range []string{"local", "sim"} {
		ds, err := c.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := ds.QueryBox(box, rdr.Options{})
		if err != nil || st.Partial {
			t.Fatalf("%s: box: partial=%v, %v", name, st.Partial, err)
		}
		sameRecords(t, name+" box", got, wantBox)
		got, dists, _, err := ds.KNN(p, 16)
		if err != nil {
			t.Fatalf("%s: knn: %v", name, err)
		}
		sameRecords(t, name+" knn", got, wantKNN)
		if !slices.Equal(dists, wantDists) {
			t.Errorf("%s: knn distances %v, want %v", name, dists, wantDists)
		}
	}
	if _, err := c.Open("sim@3"); err == nil {
		t.Error("sim@3 resolved: a sharded mount is not a series")
	}

	snap := srv.Snapshot()
	if snap.Fanout == 0 || snap.BlockCache.Hits+snap.BlockCache.Misses == 0 {
		t.Errorf("snapshot: fanout %d, block cache %d hits %d misses; want both kinds of mount counted",
			snap.Fanout, snap.BlockCache.Hits, snap.BlockCache.Misses)
	}
	if snap.ShardErrors != 0 || snap.Partials != 0 || snap.OpenBreakers != 0 {
		t.Errorf("snapshot: %+v, want no shard errors, partials or open breakers", snap.ShardMetrics)
	}
	if _, ok := snap.Datasets["local"]; !ok || len(snap.Datasets) != 1 {
		t.Errorf("snapshot datasets %v, want the local mount alone", snap.Datasets)
	}
}

// TestSharedBackendBreakerCountsOnce: two sharded mounts over the same
// three backends, one of them shut down. A read of each mount finds it
// gone — the first opening its breaker, the second skipping it — and the
// snapshot reports one open breaker, not one per mount.
func TestSharedBackendBreakerCountsOnce(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 30)
	specs, stops := splitShards(t, src, 3)
	g := New(Config{FailThreshold: 1, Cooldown: time.Minute})
	for _, name := range []string{"a", "b"} {
		if err := g.Mount(name, specs); err != nil {
			t.Fatal(err)
		}
	}
	addr := serveOn(t, g, nil)
	stops[1]()

	for _, name := range []string{"a", "b"} {
		ds, err := server.OpenRemote(addr, name)
		if err != nil {
			t.Fatal(err)
		}
		// A pooled connection may first read the backend's drain notice;
		// the breaker opens on that failure or on the next dial's.
		for i := 0; i < 2; i++ {
			if _, st, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{}); err != nil || !st.Partial {
				t.Fatalf("%s: a read with one shard down: partial=%v, %v", name, st.Partial, err)
			}
		}
		ds.Close()
	}
	snap := g.srv.Snapshot()
	if snap.OpenBreakers != 1 || snap.BreakerSkips == 0 || snap.Partials != 4 {
		t.Errorf("snapshot: %d open breakers, %d breaker skips, %d partials; want 1, > 0, 4",
			snap.OpenBreakers, snap.BreakerSkips, snap.Partials)
	}
}
