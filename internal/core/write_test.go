package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// writeUniform writes a uniform dataset and returns its directory.
func writeUniform(t *testing.T, simDims, factor geom.Idx3, perRank int, cfgMut func(*WriteConfig)) string {
	t.Helper()
	dir := t.TempDir()
	cfg := WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor},
		Seed: 11,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	nRanks := simDims.Volume()
	grid := geom.NewGrid(cfg.Agg.Domain, simDims)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, 5, c.Rank())
		_, err := Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWriteProducesExpectedFiles(t *testing.T) {
	dir := writeUniform(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 50, nil)
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Files) != 4 {
		t.Fatalf("%d files, want 4", len(meta.Files))
	}
	if meta.Total != 16*50 {
		t.Errorf("total = %d, want 800", meta.Total)
	}
	// Aggregator ranks follow the paper's uniform selection: 0, 4, 8, 12.
	wantRanks := map[int]bool{0: true, 4: true, 8: true, 12: true}
	for _, fe := range meta.Files {
		if !wantRanks[fe.AggRank] {
			t.Errorf("unexpected aggregator rank %d", fe.AggRank)
		}
		if fe.Name != format.DataFileName(fe.AggRank) {
			t.Errorf("file name %q does not derive from agg rank %d", fe.Name, fe.AggRank)
		}
		if _, err := os.Stat(filepath.Join(dir, fe.Name)); err != nil {
			t.Errorf("data file missing: %v", err)
		}
	}
}

func TestWriteSpatialLocalityOnDisk(t *testing.T) {
	// The end-to-end claim of Fig. 1: every particle in every written
	// file lies inside that file's metadata partition box.
	dir := writeUniform(t, geom.I3(4, 2, 2), geom.I3(2, 2, 2), 64, nil)
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range meta.Files {
		df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := df.ReadAll()
		df.Close()
		if err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != fe.Count {
			t.Errorf("file %s holds %d particles, meta says %d", fe.Name, buf.Len(), fe.Count)
		}
		for i := 0; i < buf.Len(); i++ {
			p := buf.Position(i)
			if !fe.Partition.Contains(p) && !fe.Partition.ContainsClosed(p) {
				t.Fatalf("file %s has particle %v outside partition %v", fe.Name, p, fe.Partition)
			}
			if !fe.Bounds.ContainsClosed(p) {
				t.Fatalf("file %s has particle %v outside tight bounds %v", fe.Name, p, fe.Bounds)
			}
		}
	}
}

func TestWriteConservesParticlesGlobally(t *testing.T) {
	simDims := geom.I3(2, 2, 2)
	dir := writeUniform(t, simDims, geom.I3(2, 1, 1), 30, nil)
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	want := make(map[float64]bool)
	for rank := 0; rank < 8; rank++ {
		b := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(rank, simDims)), 30, 5, rank)
		for _, id := range b.Float64Field(b.Schema().FieldIndex("id")) {
			want[id] = true
		}
	}
	got := make(map[float64]bool)
	for _, fe := range meta.Files {
		df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		buf, _ := df.ReadAll()
		df.Close()
		for _, id := range buf.Float64Field(buf.Schema().FieldIndex("id")) {
			if got[id] {
				t.Fatalf("duplicate particle id %v on disk", id)
			}
			got[id] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("disk holds %d particles, inputs had %d", len(got), len(want))
	}
}

func TestWriteLODIsDeterministicShuffle(t *testing.T) {
	// The file payload must equal the LOD reorder of the aggregated
	// buffer — verify by rebuilding the expected content for a
	// single-aggregator dataset.
	simDims := geom.I3(2, 1, 1)
	dir := writeUniform(t, simDims, geom.I3(2, 1, 1), 25, nil)
	meta, _ := format.ReadMeta(dir)
	df, err := format.OpenDataFile(filepath.Join(dir, meta.Files[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	got, _ := df.ReadAll()

	grid := geom.NewGrid(geom.UnitBox(), simDims)
	expect := particle.NewBuffer(particle.Uintah(), 50)
	for rank := 0; rank < 2; rank++ {
		expect.AppendBuffer(particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(rank, simDims)), 25, 5, rank))
	}
	lod.Reorder(expect, lod.Random, reorderSeed(11, 0))
	if !got.Equal(expect) {
		t.Error("on-disk order is not the deterministic LOD reorder of the aggregation")
	}
	if df.Header.Seed != reorderSeed(11, 0) {
		t.Error("header seed mismatch")
	}
}

func TestWriteFilePerProcessAndSharedFile(t *testing.T) {
	// The two degenerate configurations of Fig. 3.
	fpp := writeUniform(t, geom.I3(2, 2, 1), geom.I3(1, 1, 1), 10, nil)
	meta, _ := format.ReadMeta(fpp)
	if len(meta.Files) != 4 {
		t.Errorf("fpp: %d files, want 4", len(meta.Files))
	}
	shared := writeUniform(t, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 10, nil)
	meta, _ = format.ReadMeta(shared)
	if len(meta.Files) != 1 {
		t.Errorf("shared: %d files, want 1", len(meta.Files))
	}
	if meta.Total != 40 {
		t.Errorf("shared total = %d", meta.Total)
	}
}

func TestWriteFieldRangesExtension(t *testing.T) {
	dir := writeUniform(t, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 40, func(cfg *WriteConfig) {
		cfg.FieldRanges = true
	})
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range meta.Files {
		if len(fe.FieldMin) != 16 {
			t.Fatalf("file %s has %d range entries, want 16", fe.Name, len(fe.FieldMin))
		}
		// Verify against actual file content: position.x min/max are the
		// first flattened component.
		df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		buf, _ := df.ReadAll()
		df.Close()
		mn, mx := 2.0, -2.0
		for i := 0; i < buf.Len(); i++ {
			x := buf.Position(i).X
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		if fe.FieldMin[0] != mn || fe.FieldMax[0] != mx {
			t.Errorf("file %s: stored x range [%v,%v], actual [%v,%v]",
				fe.Name, fe.FieldMin[0], fe.FieldMax[0], mn, mx)
		}
	}
}

func TestWriteDensityHeuristic(t *testing.T) {
	dir := writeUniform(t, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 60, func(cfg *WriteConfig) {
		cfg.Heuristic = lod.DensityStratified
	})
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Heuristic != lod.DensityStratified {
		t.Error("heuristic not recorded in metadata")
	}
	if meta.Total != 240 {
		t.Errorf("total = %d", meta.Total)
	}
}

func TestWriteAdaptive(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(4, 2, 1)
	cfg := WriteConfig{
		Agg:      agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
		Adaptive: true,
		Seed:     3,
	}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(8, func(c *mpi.Comm) error {
		patch := grid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Occupancy(particle.Uintah(), geom.UnitBox(), patch, 80, 0.5, 9, c.Rank())
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
	if meta.Total != 8*80 {
		t.Errorf("total = %d, want 640", meta.Total)
	}
	if len(meta.Files) != 4 {
		t.Errorf("%d files, want 4", len(meta.Files))
	}
	for _, fe := range meta.Files {
		if fe.Count == 0 {
			t.Errorf("adaptive file %s is empty", fe.Name)
		}
		// Adaptive partitions hug the occupied half of the domain.
		if fe.Partition.Hi.X > 0.55 {
			t.Errorf("adaptive partition %v extends past occupied region", fe.Partition)
		}
	}
}

func TestWriteTimingsPopulated(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(2, 2, 1)
	cfg := WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)}}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 100, 1, c.Rank())
		res, err := Write(c, dir, cfg, local)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if res.Partition != 0 || res.FileParticles != 400 {
				return fmt.Errorf("rank 0 result %+v", res)
			}
			if res.Timing.FileIO <= 0 || res.Timing.Reorder < 0 {
				return fmt.Errorf("rank 0 timing %+v", res.Timing)
			}
		} else if res.Partition != -1 {
			return fmt.Errorf("rank %d claims partition %d", c.Rank(), res.Partition)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritePhasesAccountForTheCall: on every rank of a 32-rank compressed
// write the phases of Timing add up to the time the rank spent in Write,
// within 5 %. Before the agreement rounds were charged to Wait, 40 % of a
// step — the ranks queueing for two cores at the three rounds — belonged
// to no phase. Encode is a part of FileIO, not a phase beside it. The
// second configuration fits an adaptive grid to validated input and stores
// field ranges, so Setup (the collective validation and fit) and the range
// scan (MetaIO) are a real share of the call. The box is shared and a rank
// descheduled between two stamps loses that time to no phase, so the
// bound must hold on one of three writes, not on each.
func TestWritePhasesAccountForTheCall(t *testing.T) {
	simDims := geom.I3(4, 4, 2)
	base := WriteConfig{
		Agg:   agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
		Codec: particle.LosslessSpec(particle.Uintah()),
	}
	full := base
	full.Adaptive, full.ValidateInput, full.FieldRanges = true, true, true
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	locals := make([]*particle.Buffer, simDims.Volume())
	for r := range locals {
		locals[r] = particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(r, simDims)), 4096, 1, r)
	}
	for name, cfg := range map[string]WriteConfig{"aligned": base, "adaptive+validate+ranges": full} {
		t.Run(name, func(t *testing.T) {
			var worst string
			for attempt := 0; attempt < 3; attempt++ {
				results := make([]WriteResult, len(locals))
				walls := make([]time.Duration, len(locals))
				dir := t.TempDir()
				err := mpi.Run(len(locals), func(c *mpi.Comm) error {
					start := time.Now()
					res, err := Write(c, dir, cfg, locals[c.Rank()])
					walls[c.Rank()], results[c.Rank()] = time.Since(start), res
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				worst = ""
				for r, res := range results {
					tm := res.Timing
					if res.Partition >= 0 && (tm.Encode <= 0 || tm.Encode > tm.FileIO) {
						t.Fatalf("rank %d: encode %v of file I/O %v", r, tm.Encode, tm.FileIO)
					}
					if tm.Wait <= 0 || tm.Setup <= 0 || tm.MetaIO <= 0 {
						t.Fatalf("rank %d: a phase every rank goes through took no time: %+v", r, tm)
					}
					if gap := walls[r] - tm.Total(); gap < 0 || gap > walls[r]/20 {
						worst = fmt.Sprintf("rank %d: phases add up to %v of %v in Write: %+v", r, tm.Total(), walls[r], tm)
					}
				}
				if worst == "" {
					return
				}
			}
			t.Error(worst)
		})
	}
}

func TestWriteRejectsBadConfig(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		cfg := WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(3, 1, 1), Factor: geom.I3(1, 1, 1)}}
		_, err := Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("bad config accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteMultiTimestep(t *testing.T) {
	// A simulation-style loop: advect + checkpoint into per-step dirs.
	base := t.TempDir()
	simDims := geom.I3(2, 2, 1)
	cfg := WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)}}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 50, 2, c.Rank())
		for step := 0; step < 3; step++ {
			dir := filepath.Join(base, fmt.Sprintf("t%04d", step))
			if _, err := Write(c, dir, cfg, local); err != nil {
				return err
			}
			// A real simulation would migrate particles between ranks
			// after advection; here we only verify that repeated
			// checkpoints are independent and complete.
			particle.Advect(local, geom.UnitBox(), geom.V3(0.3, 0.1, 0), 0.2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		meta, err := format.ReadMeta(filepath.Join(base, fmt.Sprintf("t%04d", step)))
		if err != nil {
			t.Fatal(err)
		}
		if meta.Total != 200 {
			t.Errorf("step %d total = %d", step, meta.Total)
		}
	}
}

func TestWriteCompressedMatchesRaw(t *testing.T) {
	// The codec sits strictly after the LOD reorder, so a compressed
	// write must read back record-identical to the raw write of the same
	// input — file by file, record by record.
	rawDir := writeUniform(t, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 200, nil)
	compDir := writeUniform(t, geom.I3(2, 2, 1), geom.I3(2, 1, 1), 200, func(cfg *WriteConfig) {
		cfg.Codec = particle.LosslessSpec(particle.Uintah())
		cfg.Checksum = true
	})
	meta, err := format.ReadMeta(rawDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range meta.Files {
		rf, err := format.OpenDataFile(filepath.Join(rawDir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		cf, err := format.OpenDataFile(filepath.Join(compDir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !cf.Compressed() {
			t.Fatalf("%s: not compressed", fe.Name)
		}
		if err := cf.VerifyPayload(); err != nil {
			t.Fatalf("%s: %v", fe.Name, err)
		}
		want, err := rf.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cf.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: compressed write diverges from raw", fe.Name)
		}
		if cf.PayloadBytes() >= rf.PayloadBytes() {
			t.Errorf("%s: compressed payload %d >= raw %d", fe.Name, cf.PayloadBytes(), rf.PayloadBytes())
		}
		rf.Close()
		cf.Close()
	}
}
