package reader

import (
	"math"
	"slices"
	"testing"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// clustered writes a 16-rank clustered dataset of 4800 particles and
// returns it opened, plus every particle for brute-force comparison.
func clustered(t *testing.T) (*Dataset, *particle.Buffer) {
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
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := ds.ReadAll(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, all
}

func TestKNNErrors(t *testing.T) {
	ds, _ := clustered(t)
	for _, c := range []struct {
		p geom.Vec3
		k int
	}{
		{geom.V3(0.5, 0.5, 0.5), 0},
		{geom.V3(0.5, 0.5, 0.5), 1 << 30},    // more than the dataset holds
		{geom.V3(math.NaN(), 0.5, 0.5), 1},   // no clearance ever holds it
		{geom.V3(0.5, math.Inf(-1), 0.5), 1}, // nor this one
	} {
		if _, _, _, err := ds.KNN(c.p, c.k); err == nil {
			t.Errorf("%d nearest to %v accepted", c.k, c.p)
		}
	}
}

// TestHaloSplitsOwnAndGhost: the owned particles lie in the half-open
// patch, the ghosts in the closed grown box outside it, the two are as
// many as the grown box holds, and a margin that is not at least 0 is
// refused.
func TestHaloSplitsOwnAndGhost(t *testing.T) {
	ds, all := clustered(t)
	patch := geom.NewBox(geom.V3(0.25, 0.25, 0), geom.V3(0.5, 0.5, 1))
	const h = 0.05
	own, ghost, _, err := ds.Halo(patch, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if own.Len() == 0 || ghost.Len() == 0 {
		t.Fatalf("halo owns %d and ghosts %d; the test wants both", own.Len(), ghost.Len())
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
		if grown.ContainsClosed(all.Position(i)) {
			want++
		}
	}
	if own.Len()+ghost.Len() != want {
		t.Errorf("halo returned %d, brute force %d", own.Len()+ghost.Len(), want)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		if _, _, _, err := ds.Halo(patch, bad, Options{}); err == nil {
			t.Errorf("halo %v accepted", bad)
		}
	}
}

// TestDensityGridExactAndSampled: an exact grid is read at fraction 1 and
// counts every particle; a grid sampled from a LOD prefix is scaled to
// about the dataset's size and correlates with the exact one; a grid with
// an empty axis is refused. The cells, bit for bit, are TestReadContract's
// (internal/gateway).
func TestDensityGridExactAndSampled(t *testing.T) {
	ds, all := clustered(t)
	dims := geom.I3(4, 4, 2)
	exact, frac, _, err := ds.DensityGrid(dims, 0, 1)
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

	approx, frac, _, err := ds.DensityGrid(dims, 5, 4)
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
	if _, _, _, err := ds.DensityGrid(geom.I3(4, 0, 2), 0, 1); err == nil {
		t.Error("a grid with a zero axis accepted")
	}
}

// TestDensityCountsAreLocateLinear holds the density read, which computes
// the cell size once per answer, to geom.Grid.LocateLinear one particle
// at a time, over a domain off the origin whose cell sizes are not exact,
// with particles on every cell face (where geom.Grid.CellBox puts it), an
// ulp below each, and on the domain's upper faces: where a rounding or a
// clamp that drifted would move a count to a neighbour. The Locator is
// held to the definition on NaN, infinite and outside points too.
func TestDensityCountsAreLocateLinear(t *testing.T) {
	dom := geom.NewBox(geom.V3(-0.3, 0.1, 2), geom.V3(0.7, 1.4, 2.9))
	dims := geom.I3(4, 3, 7)
	grid := geom.NewGrid(dom, dims)
	buf := particle.Uniform(particle.Uintah(), dom, 2000, 3, 0)
	below := func(v, lo float64) float64 { return max(math.Nextafter(v, lo), lo) }
	at := 0
	for x := 0; x <= dims.X; x++ {
		for y := 0; y <= dims.Y; y++ {
			for z := 0; z <= dims.Z; z++ {
				c := grid.CellBox(geom.I3(min(x, dims.X-1), min(y, dims.Y-1), min(z, dims.Z-1)))
				face := c.Lo
				if x == dims.X {
					face.X = c.Hi.X
				}
				if y == dims.Y {
					face.Y = c.Hi.Y
				}
				if z == dims.Z {
					face.Z = c.Hi.Z
				}
				for _, p := range []geom.Vec3{face, geom.V3(below(face.X, dom.Lo.X), face.Y, face.Z),
					geom.V3(face.X, below(face.Y, dom.Lo.Y), face.Z), geom.V3(face.X, face.Y, below(face.Z, dom.Lo.Z))} {
					buf.SetPosition(at, p)
					at++
				}
			}
		}
	}
	dir := t.TempDir()
	cfg := core.WriteConfig{Agg: agg.Config{Domain: dom, SimDims: geom.I3(1, 1, 1), Factor: geom.I3(1, 1, 1)}}
	if err := mpi.Run(1, func(c *mpi.Comm) error { _, err := core.Write(c, dir, cfg, buf); return err }); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, grid.Cells())
	for i := 0; i < buf.Len(); i++ {
		want[grid.LocateLinear(buf.Position(i))]++
	}
	got, frac, _, err := ds.DensityGrid(dims, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 || !slices.Equal(got, want) {
		t.Errorf("density counts %v (fraction %v), per-particle LocateLinear %v", got, frac, want)
	}
	// The density read counts with the grid's Locator, which is
	// Grid.LocateLinear. On every point above, and on the ones no write
	// accepts — each axis NaN, ±Inf, outside the domain on either side, on
	// either face or inside — it is the definition: per axis, the offset
	// from the domain corner over the cell size, truncated and clamped
	// into the axis; and Locate is the same cell.
	loc := grid.Locator()
	cs := grid.CellSize()
	ref := func(v, lo, cs float64, n int) int {
		i := int((v - lo) / cs)
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	axis := func(lo, hi float64) []float64 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), lo - 1, hi + 1, math.Nextafter(lo, math.Inf(-1)), lo, hi, (lo + hi) / 2}
	}
	points := make([]geom.Vec3, 0, buf.Len()+9*9*9)
	for i := 0; i < buf.Len(); i++ {
		points = append(points, buf.Position(i))
	}
	for _, x := range axis(dom.Lo.X, dom.Hi.X) {
		for _, y := range axis(dom.Lo.Y, dom.Hi.Y) {
			for _, z := range axis(dom.Lo.Z, dom.Hi.Z) {
				points = append(points, geom.V3(x, y, z))
			}
		}
	}
	for _, p := range points {
		want := geom.I3(ref(p.X, dom.Lo.X, cs.X, dims.X), ref(p.Y, dom.Lo.Y, cs.Y, dims.Y), ref(p.Z, dom.Lo.Z, cs.Z, dims.Z))
		if got := loc.Locate(p); got != want {
			t.Errorf("%v: located in cell %v, the definition's is %v", p, got, want)
		}
		if got := loc.LocateLinear(p); got != want.Linear(dims) {
			t.Errorf("%v: located in linear cell %d, the definition's is %d", p, got, want.Linear(dims))
		}
	}
}

// TestDensityGridAllocatesTheGrid holds the density read to the read
// path's memory model: it counts positions straight out of the record
// chunks, so what it allocates is the grid plus a constant, however much
// data it samples. The 4 MB file here cost the old ReadAll-then-count path more
// than 8 MB.
func TestDensityGridAllocatesTheGrid(t *testing.T) {
	const perRank = 8192
	for _, codec := range []string{"raw", "lossless"} {
		dir, _ := writeDataset(t, geom.I3(2, 2, 1), geom.I3(2, 2, 1), perRank, func(cfg *core.WriteConfig) {
			if codec == "lossless" {
				cfg.Codec = particle.LosslessSpec(particle.Uintah())
			}
		})
		ds, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if err := ds.SetFileCache(4); err != nil {
			t.Fatal(err)
		}
		dims := geom.I3(16, 16, 8)
		req := &Request{Op: OpDensityGrid, Dims: dims, Flags: FlagRawDensity}
		got := allocPerRun(func() {
			a, err := ds.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			if a.Sampled != 4*perRank || len(a.Floats) != dims.Volume() {
				t.Fatalf("%s: sampled %d into %d cells", codec, a.Sampled, len(a.Floats))
			}
		})
		gridBytes := int64(8 * dims.Volume())
		t.Logf("%s: %d bytes allocated for a %d-byte grid over %d bytes of records", codec, got, gridBytes, 4*perRank*124)
		if got > gridBytes+allocSlack {
			t.Errorf("%s: the density read allocates %d bytes for a %d-byte grid; budget %d", codec, got, gridBytes, gridBytes+allocSlack)
		}
	}
}

// TestKNNAllocatesItsAnswer holds a KNN to the read path's memory model:
// it ranks candidates in the scan and keeps k of them, so what it
// allocates is its answer plus a constant, however many candidates its
// box holds. From a point this far outside the domain the final box holds
// every particle; the search that copied and sorted every candidate there
// allocated 731 KB for a 2 KB answer.
func TestKNNAllocatesItsAnswer(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 2000, nil)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.SetFileCache(8); err != nil {
		t.Fatal(err)
	}
	const k = 16
	var kept int64
	got := allocPerRun(func() {
		_, _, st, err := ds.KNN(geom.V3(4, 0.5, 0.5), k)
		if err != nil {
			t.Fatal(err)
		}
		kept = st.ParticlesKept
	})
	answer := int64(k * ds.Meta().Schema.Stride())
	t.Logf("KNN: %d bytes allocated for a %d-byte answer out of %d candidates", got, answer, kept)
	if budget := answer + knnSlack; got > budget || kept < 100*k {
		t.Errorf("KNN allocates %d bytes for a %d-byte answer out of %d candidates; budget %d", got, answer, kept, budget)
	}
}

// knnSlack is a KNN's constant: each round's file entries, selection
// vector and stats, and the filter's k slots.
const knnSlack = 64 << 10

// BenchmarkKNN searches inside the data and from a point outside the
// domain, whose final box holds every particle.
func BenchmarkKNN(b *testing.B) {
	ds := benchDataset(b)
	for _, c := range []struct {
		name string
		p    geom.Vec3
	}{{"in-cluster", geom.V3(0.4, 0.6, 0.5)}, {"far", geom.V3(4, 0.5, 0.5)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ds.KNN(c.p, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHalo(b *testing.B) {
	ds := benchDataset(b)
	patch := geom.NewBox(geom.V3(0.25, 0.25, 0), geom.V3(0.5, 0.5, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ds.Halo(patch, 0.05, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDataset writes a 16-rank dataset once per benchmark run and opens
// it with a warm file cache.
func benchDataset(b *testing.B) *Dataset {
	dir, _ := writeDataset(b, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 2000, nil)
	ds, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	ds.SetFileCache(8)
	b.Cleanup(func() { ds.Close() })
	return ds
}
