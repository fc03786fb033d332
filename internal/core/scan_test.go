package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"spio/internal/agg"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
	"spio/internal/reader"
)

func TestWriteScanNonAligned(t *testing.T) {
	// A 3x1x1 aggregation-grid over a 4x2x1 simulation: patches straddle
	// partitions, forcing the per-particle scan path of Section 3.
	dir := t.TempDir()
	simDims := geom.I3(4, 2, 1)
	cfg := WriteConfig{
		Agg:     agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(1, 1, 1)},
		AggDims: geom.I3(3, 1, 1),
		Seed:    5,
	}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(8, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 100, 3, c.Rank())
		_, err := Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Files) != 3 {
		t.Fatalf("%d files, want 3", len(meta.Files))
	}
	if meta.Total != 800 {
		t.Errorf("total = %d", meta.Total)
	}
	// Non-aligned writes record a zero partition factor as the marker.
	if meta.PartitionFactor != (geom.Idx3{}) {
		t.Errorf("partition factor = %v, want zero marker", meta.PartitionFactor)
	}
	if meta.AggDims != geom.I3(3, 1, 1) {
		t.Errorf("agg dims = %v", meta.AggDims)
	}
	// Spatial locality still holds: each file's particles sit inside its
	// partition.
	for _, fe := range meta.Files {
		df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		buf, _ := df.ReadAll()
		df.Close()
		for i := 0; i < buf.Len(); i++ {
			p := buf.Position(i)
			if !fe.Partition.Contains(p) && !fe.Partition.ContainsClosed(p) {
				t.Fatalf("file %s holds out-of-partition particle", fe.Name)
			}
		}
	}
}

func TestWriteScanAndAdaptiveExclusive(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := WriteConfig{
			Agg:      agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(2, 1, 1), Factor: geom.I3(1, 1, 1)},
			AggDims:  geom.I3(2, 1, 1),
			Adaptive: true,
		}
		_, err := Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("exclusive options accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteScanRejectsTooManyPartitions(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := WriteConfig{
			Agg:     agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(2, 1, 1), Factor: geom.I3(1, 1, 1)},
			AggDims: geom.I3(4, 1, 1),
		}
		_, err := Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("4 partitions on 2 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteAdaptiveRankOnUpperFace: an adaptive write whose sender sets
// disagreed with the bins used to fail on every rank. A rank whose
// particles all sit on the domain's closed upper face has bounds that
// inflating cannot make a half-open box inside the domain, and on a
// domain far from the origin the inflation is below the coordinates'
// precision and the rank holding the occupied region's maximum is in the
// same place. Sender sets now come from the cells the closed bounds span
// under the split's own Locate, so each write must succeed and read back
// complete.
func TestWriteAdaptiveRankOnUpperFace(t *testing.T) {
	simDims := geom.I3(2, 2, 1)
	onFace := func(domain geom.Box, axis, n int) func(rank int, patch geom.Box) *particle.Buffer {
		return func(rank int, patch geom.Box) *particle.Buffer {
			b := particle.Uniform(particle.Uintah(), patch, n, 3, rank)
			if rank == 3 {
				for i := 0; i < b.Len(); i++ {
					b.SetPosition(i, b.Position(i).WithComp(axis, domain.Hi.Comp(axis)))
				}
			}
			return b
		}
	}
	far := geom.NewBox(geom.V3(1e9, 1e9, 1e9), geom.V3(1e9+1, 1e9+1, 1e9+1))
	cases := []struct {
		name   string
		domain geom.Box
		local  func(rank int, patch geom.Box) *particle.Buffer
	}{
		{"one particle at (1, 0.75, 0.5)", geom.UnitBox(), func(rank int, patch geom.Box) *particle.Buffer {
			if rank != 3 {
				return particle.Uniform(particle.Uintah(), patch, 40, 3, rank)
			}
			b := particle.Uniform(particle.Uintah(), patch, 1, 3, rank)
			b.SetPosition(0, geom.V3(1, 0.75, 0.5))
			return b
		}},
		{"a whole rank on the x face", geom.UnitBox(), onFace(geom.UnitBox(), 0, 40)},
		{"a whole rank on the y face", geom.UnitBox(), onFace(geom.UnitBox(), 1, 40)},
		{"a whole rank on the z face", geom.UnitBox(), onFace(geom.UnitBox(), 2, 40)},
		{"the occupied maximum, far from the origin", far, func(rank int, patch geom.Box) *particle.Buffer {
			// Every particle in the lower 40 % of the domain per axis, and
			// rank 3 holding only the one that is furthest out in x.
			n := 40
			if rank == 3 {
				n = 1
			}
			b := particle.Uniform(particle.Uintah(), geom.NewBox(far.Lo, far.Lo.Add(geom.V3(0.4, 0.4, 0.4))), n, 3, rank)
			if rank == 3 {
				b.SetPosition(0, far.Lo.Add(geom.V3(0.5, 0.25, 0.25)))
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := WriteConfig{
				Agg:           agg.Config{Domain: tc.domain, SimDims: simDims, Factor: geom.I3(1, 1, 1)},
				Adaptive:      true,
				ValidateInput: true,
				Seed:          5,
			}
			grid := geom.NewGrid(tc.domain, simDims)
			locals := make([]*particle.Buffer, 4)
			for r := range locals {
				locals[r] = tc.local(r, grid.CellBoxLinear(r))
			}
			writeEveryParticleOnce(t, cfg, locals)
		})
	}
}

// TestWriteParticleOnPatchFace: a particle on the face, edge or corner its
// rank's patch shares with the patches above it, or on the domain's upper
// face, is written once and where deep fsck expects it, whatever the grid.
// An imposed grid used to fail every rank of such a write: its sender sets
// came from half-open patch boxes, which the particle's partition did not
// intersect. A rank's block is now the span of its closed patch.
func TestWriteParticleOnPatchFace(t *testing.T) {
	simDims := geom.I3(2, 2, 2)
	grids := []struct {
		name string
		set  func(*WriteConfig)
	}{
		{"aligned", func(*WriteConfig) {}},
		{"imposed", func(cfg *WriteConfig) { cfg.AggDims = simDims }},
		{"adaptive", func(cfg *WriteConfig) { cfg.Adaptive = true }},
	}
	onFace := []struct {
		name string
		rank int
		at   geom.Vec3
	}{
		{"face", 0, geom.V3(0.5, 0.25, 0.25)},
		{"edge", 0, geom.V3(0.5, 0.5, 0.25)},
		{"corner", 0, geom.V3(0.5, 0.5, 0.5)},
		{"domain's upper face", 7, geom.V3(1, 0.75, 0.75)},
	}
	for _, g := range grids {
		for _, f := range onFace {
			t.Run(g.name+"/"+f.name, func(t *testing.T) {
				cfg := WriteConfig{
					Agg:           agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(1, 1, 1)},
					ValidateInput: true,
					Seed:          5,
				}
				g.set(&cfg)
				grid := geom.NewGrid(cfg.Agg.Domain, simDims)
				locals := make([]*particle.Buffer, simDims.Volume())
				for r := range locals {
					locals[r] = particle.Uniform(particle.Uintah(), grid.CellBoxLinear(r), 30, 3, r)
				}
				locals[f.rank].SetPosition(0, f.at)
				writeEveryParticleOnce(t, cfg, locals)
			})
		}
	}
}

// writeEveryParticleOnce writes locals (one buffer per rank) with cfg and
// checks that deep fsck is clean and every particle reads back exactly
// once.
func writeEveryParticleOnce(t *testing.T, cfg WriteConfig, locals []*particle.Buffer) {
	t.Helper()
	dir := t.TempDir()
	want := make(map[float64]int)
	for _, local := range locals {
		for _, id := range local.Float64Field(local.Schema().FieldIndex("id")) {
			want[id]++
		}
	}
	err := mpi.Run(len(locals), func(c *mpi.Comm) error {
		_, err := Write(c, dir, cfg, locals[c.Rank()])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reader.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if problems := ds.Fsck(reader.FsckOptions{Deep: true}); len(problems) != 0 {
		t.Errorf("fsck: %v", problems)
	}
	all, _, err := ds.ReadAll(reader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range all.Float64Field(all.Schema().FieldIndex("id")) {
		want[id]--
	}
	for id, n := range want {
		if n != 0 {
			t.Fatalf("particle %v read back %d times too few", id, n)
		}
	}
	noSegmentsHeld(t)
}
