package reader

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

func TestRestartSameRankCount(t *testing.T) {
	simDims := geom.I3(4, 2, 1)
	dir, _ := writeDataset(t, simDims, geom.I3(2, 1, 1), 60, nil)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(8, func(c *mpi.Comm) error {
		got, err := Restart(c, dir, geom.UnitBox(), simDims)
		if err != nil {
			return err
		}
		// writeDataset generates with seed 13.
		want := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 60, 13, c.Rank())
		if got.Len() != want.Len() {
			return fmt.Errorf("rank %d restarted %d particles, wrote %d", c.Rank(), got.Len(), want.Len())
		}
		wantIDs := make(map[float64]bool)
		for _, id := range want.Float64Field(want.Schema().FieldIndex("id")) {
			wantIDs[id] = true
		}
		for _, id := range got.Float64Field(got.Schema().FieldIndex("id")) {
			if !wantIDs[id] {
				return fmt.Errorf("rank %d restarted foreign particle %v", c.Rank(), id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartDifferentRankCount(t *testing.T) {
	// Written at 16 ranks, restarted at 4, 2 and 1: the union must be
	// the whole dataset, disjoint across restart ranks — the decoupling
	// of reader and writer process counts the paper contrasts with HDF5
	// sub-filing (Section 2.1).
	dir, all := writeDataset(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 40, nil)
	for _, dims := range []geom.Idx3{geom.I3(2, 2, 1), geom.I3(2, 1, 1), geom.I3(1, 1, 1)} {
		n := dims.Volume()
		seen := make([]map[float64]bool, n)
		err := mpi.Run(n, func(c *mpi.Comm) error {
			got, err := Restart(c, dir, geom.UnitBox(), dims)
			if err != nil {
				return err
			}
			ids := make(map[float64]bool)
			for _, id := range got.Float64Field(got.Schema().FieldIndex("id")) {
				ids[id] = true
			}
			seen[c.Rank()] = ids
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		union := make(map[float64]bool)
		for _, ids := range seen {
			for id := range ids {
				if union[id] {
					t.Fatalf("dims %v: particle %v restarted by two ranks", dims, id)
				}
				union[id] = true
			}
		}
		if len(union) != all.Len() {
			t.Errorf("dims %v: restarted %d of %d particles", dims, len(union), all.Len())
		}
	}
}

func TestRestartRejectsBadDims(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 5, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := Restart(c, dir, geom.UnitBox(), geom.I3(3, 1, 1)); err == nil {
			return fmt.Errorf("mismatched dims accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestartMissingDataset: a restart from no dataset, or from one
// whose data file is gone, fails instead of carrying on with what it
// could read.
func TestRestartMissingDataset(t *testing.T) {
	partial, _ := writeDataset(t, geom.I3(1, 1, 1), geom.I3(1, 1, 1), 5, nil)
	if err := os.Remove(filepath.Join(partial, format.DataFileName(0))); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{t.TempDir(), partial} {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			if _, err := Restart(c, dir, geom.UnitBox(), geom.I3(1, 1, 1)); err == nil {
				return fmt.Errorf("restart from %s succeeded", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
