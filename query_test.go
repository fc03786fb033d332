package spio_test

import (
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
