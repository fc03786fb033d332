package gateway

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// TestKNNAsksOnlyShardsThatCanHoldIt: on the benchmark's split, shrunk —
// 16 files of a 2×4×2 partition grid dealt to 3 shards in Morton runs, one
// of which spans the domain with files that are not adjacent — a KNN asks
// every shard with a file within its k-th distance, and no other shard
// when only one has. A file is where its metadata says its particles lie:
// its partition and its particle bounds, and one file here holds a rogue
// particle outside its partition, deep in another shard's. Every answer is
// brute force's. A shard used to be measured by the hull of its files,
// which for the spanning shard is the whole domain, so every KNN asked it.
func TestKNNAsksOnlyShardsThatCanHoldIt(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	simDims := geom.I3(4, 4, 2)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	// The rogue: a particle of a rank under partition (1, 0, 1), which the
	// last shard holds, placed 0.2 below that partition, in the first
	// shard's partition (1, 0, 0).
	rogue := geom.V3(0.8, 0.1, 0.3)
	rogueRank := geom.I3(3, 0, 1).Linear(simDims)
	cfg := core.WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)}, Seed: 21}
	err := mpi.Run(simDims.Volume(), func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBoxLinear(c.Rank()), 150, 13, c.Rank())
		if c.Rank() == rogueRank {
			local.SetPosition(0, rogue)
		}
		_, err := core.Write(c, src, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := rdr.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	meta := local.Meta()
	if len(meta.Files) != 16 {
		t.Fatalf("%d files, want the 2×4×2 partition grid's 16", len(meta.Files))
	}
	all, _, err := local.ReadAll(rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Where each shard's particles lie, file by file, dealt as Split deals
	// the files.
	const shards = 3
	regions := make([][]geom.Box, shards)
	filed := false // the rogue is in the last shard's particle bounds
	for s := range regions {
		for _, e := range rdr.AssignFiles(meta, shards, s) {
			regions[s] = append(regions[s], e.Partition.Union(e.Bounds))
			filed = filed || s == shards-1 && e.Bounds.ContainsClosed(rogue)
		}
	}
	if !filed {
		t.Fatalf("the rogue %v is not filed by the last shard", rogue)
	}
	specs, _ := splitShards(t, src, shards)
	g, addr := startGateway(t, Config{}, specs)
	ds, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	type query struct {
		p geom.Vec3
		k int
	}
	queries := []query{{rogue, 1}, {rogue, 8}}
	r := rand.New(rand.NewSource(3))
	for len(queries) < 62 {
		queries = append(queries, query{all.Position(r.Intn(all.Len())), 8})
	}
	var alone, several int
	for _, q := range queries {
		want := make([]float64, all.Len())
		for i := range want {
			want[i] = q.p.Dist(all.Position(i))
		}
		slices.Sort(want)
		kth := want[q.k-1]
		// The shards with a file within the k-th distance.
		var near []int
		for s, boxes := range regions {
			d := math.Inf(1)
			for _, b := range boxes {
				d = min(d, b.Dist(q.p))
			}
			if d <= kth {
				near = append(near, s)
			}
		}

		before := g.srv.Snapshot().Fanout
		_, dists, st, err := ds.KNN(q.p, q.k)
		if err != nil || st.Partial {
			t.Fatalf("%d nearest to %v: partial=%v, %v", q.k, q.p, st.Partial, err)
		}
		asked := g.srv.Snapshot().Fanout - before
		if !slices.Equal(dists, want[:q.k]) {
			t.Errorf("%d nearest to %v at %v, brute force %v", q.k, q.p, dists, want[:q.k])
		}
		if len(near) == 1 {
			alone++
		} else {
			several++
		}
		if asked < int64(len(near)) || (len(near) == 1 && asked != 1) {
			t.Errorf("%d nearest to %v: shards %v have a file within the k-th distance %.4f, but %d shards asked", q.k, q.p, near, kth, asked)
		}
	}
	t.Logf("%d queries near one shard, %d near several", alone, several)
	if alone < 10 || several < 5 {
		t.Fatalf("%d queries near one shard and %d near several: the queries need another seed", alone, several)
	}
}
