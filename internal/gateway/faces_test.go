package gateway

import (
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

// TestBoxQueryFindsParticlesOnPartitionFaces: a particle on a partition's
// face, edge or corner, or one filed in a partition that does not hold it,
// is found by every query whose closed box holds it — QueryBox, Halo and
// KNN, locally, through spiod and through a 3-shard spiogate, against a
// closed brute-force filter. Files used to be selected by their half-open
// partition alone, which misses a particle on the partition's upper face,
// or on its lower face under a query whose Hi is that face. A KNN around a
// point outside the domain gave up short of k, locally and through spiod.
func TestBoxQueryFindsParticlesOnPartitionFaces(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(2, 2, 2)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	locals := make([]*particle.Buffer, simDims.Volume())
	for r := range locals {
		locals[r] = particle.Uniform(particle.Uintah(), grid.CellBoxLinear(r), 40, 9, r)
	}
	// Aligned 2×2×2 ÷ 1×1×1: each rank's patch is its partition, rank 0's
	// [0, .5]³ and rank 7's [.5, 1]³, and a rank files its whole buffer.
	for i, at := range []geom.Vec3{
		geom.V3(0.5, 0.25, 0.25), // on rank 0's upper x face
		geom.V3(0.5, 0.5, 0.25),  // on an edge
		geom.V3(0.5, 0.5, 0.5),   // on the corner of all eight partitions
		geom.V3(0.8, 0.8, 0.8),   // a rogue inside rank 7's partition
	} {
		locals[0].SetPosition(i, at)
	}
	locals[7].SetPosition(0, geom.V3(0.5, 0.75, 0.75)) // on rank 7's lower x face
	cfg := core.WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(1, 1, 1)}, Seed: 21}
	err := mpi.Run(len(locals), func(c *mpi.Comm) error {
		_, err := core.Write(c, dir, cfg, locals[c.Rank()])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	all := particle.NewBuffer(particle.Uintah(), 0)
	for _, l := range locals {
		all.AppendBuffer(l)
	}

	local, err := rdr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spiod, _ := startBackend(t, dir)
	specs, _ := splitShards(t, dir, 3)
	_, gate := startGateway(t, Config{}, specs)
	sources := []struct {
		name string
		addr string // "" for the local reader
		ref  string
	}{{"local", "", ""}, {"spiod", spiod, "shard"}, {"spiogate", gate, "sim"}}

	// ids returns the ids of b's particles that keep holds, sorted.
	ids := func(b *particle.Buffer, keep func(geom.Vec3) bool) []float64 {
		var out []float64
		id := b.Float64Field(b.Schema().FieldIndex("id"))
		for i := 0; i < b.Len(); i++ {
			if keep(b.Position(i)) {
				out = append(out, id[i])
			}
		}
		slices.Sort(out)
		return out
	}
	every := func(geom.Vec3) bool { return true }
	boxes := []geom.Box{
		geom.NewBox(geom.V3(0.5, 0, 0), geom.V3(0.75, 1, 1)),          // Lo on the x face
		geom.NewBox(geom.V3(0.25, 0.5, 0.5), geom.V3(0.5, 1, 1)),      // Hi on the x face
		geom.NewBox(geom.V3(0.5, 0.5, 0), geom.V3(1, 1, 0.3)),         // the edge
		geom.NewBox(geom.V3(0.5, 0.5, 0.5), geom.V3(0.5, 0.5, 0.5)),   // the corner alone
		geom.NewBox(geom.V3(0.75, 0.75, 0.75), geom.V3(0.85, 1, 0.9)), // the rogue
	}
	halos := []struct {
		patch geom.Box
		halo  float64
	}{
		{geom.NewBox(geom.V3(0.5, 0.5, 0.5), geom.V3(1, 1, 1)), 0},
		{geom.NewBox(geom.V3(0.5, 0, 0), geom.V3(1, 0.5, 0.5)), 0.1},
		{geom.NewBox(geom.V3(0.7, 0.7, 0.7), geom.V3(0.9, 0.9, 0.9)), 0.05},
	}
	knns := []struct {
		p geom.Vec3
		k int
	}{{geom.V3(0.8, 0.8, 0.8), 1}, {geom.V3(0.5, 0.5, 0.5), 4}, {geom.V3(0.52, 0.25, 0.25), 2},
		{geom.V3(3, 0.5, 0.5), 40}, {geom.V3(-2, 3, 0.5), 1}} // the last two outside the domain

	for _, src := range sources {
		var ds server.Dataset = local
		if src.addr != "" {
			remote, err := server.OpenRemote(src.addr, src.ref)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			ds = remote
		}
		ask := func(req *rdr.Request) *rdr.Answer {
			t.Helper()
			a, err := ds.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		for _, q := range boxes {
			got := ask(&rdr.Request{Op: rdr.OpQueryBox, Box: q}).Rows.Buffer()
			if want := ids(all, q.ContainsClosed); !slices.Equal(ids(got, every), want) {
				t.Errorf("%s: box %v holds %d particles, brute force %d", src.name, q, got.Len(), len(want))
			}
		}
		for _, h := range halos {
			grown := geom.NewBox(h.patch.Lo.Sub(geom.V3(h.halo, h.halo, h.halo)), h.patch.Hi.Add(geom.V3(h.halo, h.halo, h.halo)))
			a := ask(&rdr.Request{Op: rdr.OpHalo, Box: h.patch, Halo: h.halo})
			own, ghost := a.Rows.Buffer(), a.Ghost.Buffer()
			wantOwn := ids(all, func(p geom.Vec3) bool { return grown.ContainsClosed(p) && h.patch.Contains(p) })
			wantGhost := ids(all, func(p geom.Vec3) bool { return grown.ContainsClosed(p) && !h.patch.Contains(p) })
			if !slices.Equal(ids(own, every), wantOwn) || !slices.Equal(ids(ghost, every), wantGhost) {
				t.Errorf("%s: halo %v+%v owns %d and ghosts %d, brute force %d and %d",
					src.name, h.patch, h.halo, own.Len(), ghost.Len(), len(wantOwn), len(wantGhost))
			}
		}
		for _, n := range knns {
			a := ask(&rdr.Request{Op: rdr.OpKNN, Point: n.p, K: n.k})
			a.Release()
			want := make([]float64, all.Len())
			for i := range want {
				want[i] = n.p.Dist(all.Position(i))
			}
			slices.Sort(want)
			if !slices.Equal(a.Floats, want[:n.k]) {
				t.Errorf("%s: %d nearest to %v at %v, brute force %v", src.name, n.k, n.p, a.Floats, want[:n.k])
			}
		}
	}
}
