package query

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/israce"
	"spio/internal/mpi"
	"spio/internal/particle"
	"spio/internal/reader"
)

// dataset writes a 16-rank clustered dataset and returns it opened, plus
// every particle for brute-force comparison.
func dataset(t *testing.T) (*reader.Dataset, *particle.Buffer) {
	t.Helper()
	dir := t.TempDir()
	simDims := geom.I3(4, 4, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	cfg := core.WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)},
	}
	err := mpi.Run(16, func(c *mpi.Comm) error {
		local := particle.Clustered(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 300, 2, 7, c.Rank())
		_, werr := core.Write(c, dir, cfg, local)
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reader.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := ds.ReadAll(reader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, all
}

func TestKNNMatchesBruteForce(t *testing.T) {
	ds, all := dataset(t)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		p := geom.V3(r.Float64(), r.Float64(), r.Float64())
		k := 1 + r.Intn(20)
		got, dists, _, err := KNN(ds, p, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != k || len(dists) != k {
			t.Fatalf("trial %d: got %d neighbours, want %d", trial, got.Len(), k)
		}
		// Brute force distances.
		bf := make([]float64, all.Len())
		for i := range bf {
			bf[i] = p.Dist(all.Position(i))
		}
		sort.Float64s(bf)
		for i := 0; i < k; i++ {
			if math.Abs(dists[i]-bf[i]) > 1e-12 {
				t.Fatalf("trial %d: neighbour %d distance %v, brute force %v", trial, i, dists[i], bf[i])
			}
			if p.Dist(got.Position(i)) != dists[i] {
				t.Fatalf("trial %d: reported distance inconsistent with particle", trial)
			}
		}
		// Sorted ascending.
		for i := 1; i < k; i++ {
			if dists[i] < dists[i-1] {
				t.Fatalf("trial %d: distances unsorted", trial)
			}
		}
	}
}

func TestKNNQueryOutsideClusterStillWorks(t *testing.T) {
	ds, all := dataset(t)
	// A corner point far from most mass forces box expansion.
	p := geom.V3(0.999, 0.999, 0.999)
	got, dists, _, err := KNN(ds, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	bf := make([]float64, all.Len())
	for i := range bf {
		bf[i] = p.Dist(all.Position(i))
	}
	sort.Float64s(bf)
	for i := 0; i < 5; i++ {
		if math.Abs(dists[i]-bf[i]) > 1e-12 {
			t.Fatalf("neighbour %d: %v vs %v", i, dists[i], bf[i])
		}
	}
	_ = got
}

func TestKNNErrors(t *testing.T) {
	ds, _ := dataset(t)
	if _, _, _, err := KNN(ds, geom.V3(0.5, 0.5, 0.5), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, _, err := KNN(ds, geom.V3(0.5, 0.5, 0.5), 1<<30); err == nil {
		t.Error("k > dataset size accepted")
	}
}

func TestHaloSplitsOwnAndGhost(t *testing.T) {
	ds, all := dataset(t)
	patch := geom.NewBox(geom.V3(0.25, 0.25, 0), geom.V3(0.5, 0.5, 1))
	const h = 0.05
	own, ghost, _, err := Halo(ds, patch, h, reader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < own.Len(); i++ {
		if !patch.Contains(own.Position(i)) {
			t.Fatal("own particle outside patch")
		}
	}
	grown := geom.NewBox(patch.Lo.Sub(geom.V3(h, h, h)), patch.Hi.Add(geom.V3(h, h, h)))
	for i := 0; i < ghost.Len(); i++ {
		p := ghost.Position(i)
		if patch.Contains(p) {
			t.Fatal("ghost particle inside patch")
		}
		if !grown.ContainsClosed(p) {
			t.Fatal("ghost particle outside halo")
		}
	}
	// Completeness: own+ghost equals the brute-force count in grown.
	want := 0
	for i := 0; i < all.Len(); i++ {
		if grown.Contains(all.Position(i)) || grown.ContainsClosed(all.Position(i)) {
			want++
		}
	}
	if own.Len()+ghost.Len() != want {
		t.Errorf("halo returned %d, brute force %d", own.Len()+ghost.Len(), want)
	}
	if _, _, _, err := Halo(ds, patch, -1, reader.Options{}); err == nil {
		t.Error("negative halo accepted")
	}
}

func TestDensityGridExactAndSampled(t *testing.T) {
	ds, all := dataset(t)
	dims := geom.I3(4, 4, 2)
	exact, frac, _, err := DensityGrid(ds, dims, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Errorf("full read fraction = %v", frac)
	}
	var sum float64
	for _, c := range exact {
		sum += c
	}
	if int(sum) != all.Len() {
		t.Errorf("exact density sums to %v, want %d", sum, all.Len())
	}

	approx, frac, _, err := DensityGrid(ds, dims, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac >= 1 || frac <= 0 {
		t.Fatalf("sampled fraction = %v", frac)
	}
	// The scaled estimate should total ≈ the dataset size and correlate
	// with the exact field.
	sum = 0
	for _, c := range approx {
		sum += c
	}
	if math.Abs(sum-float64(all.Len())) > 1 {
		t.Errorf("approx density sums to %v, want ≈%d", sum, all.Len())
	}
	var num, dx, dy float64
	var mx, my float64
	for i := range exact {
		mx += exact[i]
		my += approx[i]
	}
	mx /= float64(len(exact))
	my /= float64(len(approx))
	for i := range exact {
		num += (exact[i] - mx) * (approx[i] - my)
		dx += (exact[i] - mx) * (exact[i] - mx)
		dy += (approx[i] - my) * (approx[i] - my)
	}
	if corr := num / math.Sqrt(dx*dy); corr < 0.7 {
		t.Errorf("sampled density decorrelated from exact (r=%.2f)", corr)
	}
	// A grid with an empty axis is an error, not geom.NewGrid's panic.
	if _, _, _, err := DensityGrid(ds, geom.I3(4, 0, 2), 0, 1); err == nil {
		t.Error("a grid with a zero axis accepted")
	}
}

// TestDensityGridAllocatesTheGrid holds DensityGridRaw to the read
// path's memory model: it counts positions straight out of the record
// chunks, so what it allocates is the grid plus a constant (one staging
// slice a per-P pool may fail to hand back), however much data it
// samples. The 4 MB file here cost the old ReadAll-then-count path more
// than 8 MB.
func TestDensityGridAllocatesTheGrid(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const perRank, slack = 8192, 1 << 20
	for _, codec := range []string{"raw", "lossless"} {
		dir := t.TempDir()
		simDims := geom.I3(2, 2, 1)
		grid := geom.NewGrid(geom.UnitBox(), simDims)
		cfg := core.WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: simDims}}
		if codec == "lossless" {
			cfg.Codec = particle.LosslessSpec(particle.Uintah())
		}
		err := mpi.Run(4, func(c *mpi.Comm) error {
			local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, 3, c.Rank())
			_, werr := core.Write(c, dir, cfg, local)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := reader.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if err := ds.SetFileCache(4); err != nil {
			t.Fatal(err)
		}
		dims := geom.I3(16, 16, 8)
		run := func() {
			counts, sampled, _, err := DensityGridRaw(ds, dims, reader.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sampled != 4*perRank || len(counts) != dims.Volume() {
				t.Fatalf("%s: sampled %d into %d cells", codec, sampled, len(counts))
			}
		}
		run()
		run() // pools warm
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc-before.TotalAlloc) / runs
		gridBytes := int64(8 * dims.Volume())
		t.Logf("%s: %d bytes allocated for a %d-byte grid over %d bytes of records", codec, got, gridBytes, 4*perRank*124)
		if got > gridBytes+slack {
			t.Errorf("%s: DensityGridRaw allocates %d bytes for a %d-byte grid; budget %d", codec, got, gridBytes, gridBytes+slack)
		}
	}
}
