package spio_test

import (
	"math"
	"sort"
	"testing"

	"spio"
)

func writeQueryDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	simDims := spio.I3(4, 4, 1)
	grid := spio.NewGrid(spio.UnitBox(), simDims)
	cfg := spio.WriteConfig{
		Agg:      spio.AggConfig{Domain: spio.UnitBox(), SimDims: simDims, Factor: spio.I3(2, 2, 1)},
		Checksum: true,
	}
	err := spio.Run(16, func(c *spio.Comm) error {
		local := spio.Uniform(spio.UintahSchema(), grid.CellBox(spio.Unlinear(c.Rank(), simDims)), 400, 3, c.Rank())
		_, err := spio.Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFacadeKNN(t *testing.T) {
	ds, err := spio.Open(writeQueryDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	p := spio.V3(0.3, 0.7, 0.5)
	nn, dists, _, err := spio.KNN(ds, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nn.Len() != 8 || len(dists) != 8 {
		t.Fatalf("got %d neighbours", nn.Len())
	}
	if !sort.Float64sAreSorted(dists) {
		t.Error("distances not sorted")
	}
	// Cross-check the nearest against a full scan.
	all, _, err := ds.ReadAll(spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for i := 0; i < all.Len(); i++ {
		if d := p.Dist(all.Position(i)); d < best {
			best = d
		}
	}
	if math.Abs(best-dists[0]) > 1e-12 {
		t.Errorf("nearest distance %v, brute force %v", dists[0], best)
	}
}

func TestFacadeHaloAndDensity(t *testing.T) {
	ds, err := spio.Open(writeQueryDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	patch := spio.NewBox(spio.V3(0.5, 0.5, 0), spio.V3(0.75, 0.75, 1))
	own, ghost, _, err := spio.Halo(ds, patch, 0.05, spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if own.Len() == 0 || ghost.Len() == 0 {
		t.Errorf("halo: own=%d ghost=%d", own.Len(), ghost.Len())
	}
	counts, frac, _, err := spio.DensityGrid(ds, spio.I3(2, 2, 1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 || len(counts) != 4 {
		t.Fatalf("density: frac=%v len=%d", frac, len(counts))
	}
	var sum float64
	for _, c := range counts {
		sum += c
	}
	if int64(sum) != ds.Meta().Total {
		t.Errorf("density sums to %v", sum)
	}
}

func TestFacadeFieldProjection(t *testing.T) {
	ds, err := spio.Open(writeQueryDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := ds.ReadAll(spio.QueryOptions{Fields: []string{"density"}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != ds.Meta().Total {
		t.Fatalf("projected read returned %d", buf.Len())
	}
	s := buf.Schema()
	if s.NumFields() != 2 || s.FieldIndex("density") != 1 {
		t.Errorf("projected schema = %v", s)
	}
	if s.Stride() != 32 {
		t.Errorf("projected stride = %d", s.Stride())
	}
	// Values must match the unprojected read.
	full, _, err := ds.ReadAll(spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := full.Float64Field(full.Schema().FieldIndex("density"))
	got := buf.Float64Field(1)
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("projected density differs from full read")
		}
	}
	// Several fields come after the position in the order named.
	two, _, err := ds.ReadAll(spio.QueryOptions{Fields: []string{"id", "density"}})
	if err != nil {
		t.Fatal(err)
	}
	if s := two.Schema(); s.NumFields() != 3 || s.FieldIndex("id") != 1 || s.FieldIndex("density") != 2 || s.Stride() != 40 {
		t.Errorf("projected schema = %v", s)
	}
	// Unknown field fails cleanly.
	if _, _, err := ds.ReadAll(spio.QueryOptions{Fields: []string{"nope"}}); err == nil {
		t.Error("unknown projected field accepted")
	}
}

func TestFacadeProjectionWithBoxAndLevels(t *testing.T) {
	ds, err := spio.Open(writeQueryDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	q := spio.NewBox(spio.V3(0, 0, 0), spio.V3(0.5, 0.5, 1))
	proj, _, err := ds.QueryBox(q, spio.QueryOptions{Fields: []string{"id"}, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := ds.QueryBox(q, spio.QueryOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != full.Len() {
		t.Errorf("projection changed the particle set: %d vs %d", proj.Len(), full.Len())
	}
}
