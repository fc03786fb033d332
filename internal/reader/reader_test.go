package reader

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// writeDataset writes a uniform dataset with the given shape and returns
// its directory and the concatenation of all rank inputs (for
// brute-force comparison).
func writeDataset(t testing.TB, simDims, factor geom.Idx3, perRank int, mut func(*core.WriteConfig)) (string, *particle.Buffer) {
	t.Helper()
	dir := t.TempDir()
	cfg := core.WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor},
		Seed: 21,
	}
	if mut != nil {
		mut(&cfg)
	}
	grid := geom.NewGrid(cfg.Agg.Domain, simDims)
	nRanks := simDims.Volume()
	all := particle.NewBuffer(particle.Uintah(), nRanks*perRank)
	for rank := 0; rank < nRanks; rank++ {
		all.AppendBuffer(particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(rank, simDims)), perRank, 13, rank))
	}
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, 13, c.Rank())
		_, err := core.Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, all
}

func idSet(b *particle.Buffer) map[float64]bool {
	out := make(map[float64]bool, b.Len())
	for _, id := range b.Float64Field(b.Schema().FieldIndex("id")) {
		out[id] = true
	}
	return out
}

func TestQueryBoxOpensOnlyIntersectingFiles(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 40, nil)
	ds, _ := Open(dir)
	// A query strictly inside one partition opens exactly 1 of 4 files.
	q := geom.NewBox(geom.V3(0.05, 0.05, 0.1), geom.V3(0.45, 0.45, 0.9))
	got, st, err := ds.QueryBox(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesOpened != 1 {
		t.Errorf("opened %d files, want 1 (spatial metadata should prune)", st.FilesOpened)
	}
	if st.ParticlesKept != int64(got.Len()) {
		t.Errorf("stats kept %d != returned %d", st.ParticlesKept, got.Len())
	}
	// The whole domain opens all 4.
	_, st, _ = ds.QueryBox(geom.UnitBox(), Options{NoFilter: true})
	if st.FilesOpened != 4 {
		t.Errorf("opened %d files, want 4", st.FilesOpened)
	}
}

func TestScanWithoutMetadataEquivalentButCostlier(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 2, 1), geom.I3(2, 1, 1), 60, nil)
	ds, _ := Open(dir)
	q := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.3, 1, 1))
	smart, smartSt, err := ds.QueryBox(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blind, blindSt, err := ScanWithoutMetadata(dir, particle.Uintah(), q)
	if err != nil {
		t.Fatal(err)
	}
	a, b := idSet(smart), idSet(blind)
	if len(a) != len(b) {
		t.Fatalf("smart %d vs blind %d particles", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatal("result sets differ")
		}
	}
	// The blind scan must touch every file and read every byte.
	if blindSt.FilesOpened != 4 {
		t.Errorf("blind opened %d files", blindSt.FilesOpened)
	}
	if blindSt.BytesRead <= smartSt.BytesRead {
		t.Errorf("blind read %d bytes, smart %d — blind should cost more",
			blindSt.BytesRead, smartSt.BytesRead)
	}
}

func TestLODLevelZeroIsRepresentative(t *testing.T) {
	// The level-1 subset should cover most of the domain: split into 8
	// octants, every octant should be hit once the subset has ≥ 64
	// particles (random shuffle ⇒ overwhelmingly likely).
	dir, _ := writeDataset(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 256, nil)
	ds, _ := Open(dir)
	sub, _, err := ds.ReadAll(Options{Levels: 3, Readers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() < 64 {
		t.Skipf("subset too small (%d) for coverage check", sub.Len())
	}
	g := geom.NewGrid(geom.UnitBox(), geom.I3(2, 2, 2))
	seen := make(map[int]bool)
	for i := 0; i < sub.Len(); i++ {
		seen[g.LocateLinear(sub.Position(i))] = true
	}
	// Patches are 4x4x1 but each spans the full z range, so particles
	// populate all 8 octants of the unit cube.
	if len(seen) != 8 {
		t.Errorf("LOD subset covers %d of 8 octants", len(seen))
	}
}

func TestReadWithDifferentReaderCounts(t *testing.T) {
	// The Section 2.1 contrast with HDF5 subfiling: reads work with any
	// reader count, not just the writer configuration. AssignFiles deals
	// the files over 1, 2, 3, 5, 8, 16 readers so that every file has
	// exactly one reader, and the union of the readers' reads is the whole
	// dataset with no overlap.
	dir, all := writeDataset(t, geom.I3(4, 2, 1), geom.I3(1, 1, 1), 32, nil)
	ds, _ := Open(dir)
	for _, nReaders := range []int{1, 2, 3, 5, 8, 16} {
		readers := make(map[string]int)
		got := make(map[float64]bool)
		for rdr := 0; rdr < nReaders; rdr++ {
			entries := AssignFiles(ds.Meta(), nReaders, rdr)
			for _, e := range entries {
				readers[e.Name]++
			}
			buf, _, err := ds.ReadEntries(entries, geom.UnitBox(), Options{NoFilter: true})
			if err != nil {
				t.Fatal(err)
			}
			for id := range idSet(buf) {
				if got[id] {
					t.Fatalf("nReaders=%d: particle %v read twice", nReaders, id)
				}
				got[id] = true
			}
		}
		if len(got) != all.Len() {
			t.Errorf("nReaders=%d: read %d of %d particles", nReaders, len(got), all.Len())
		}
		for _, e := range ds.Meta().Files {
			if readers[e.Name] != 1 {
				t.Errorf("nReaders=%d: %s dealt to %d readers", nReaders, e.Name, readers[e.Name])
			}
		}
		if len(readers) != len(ds.Meta().Files) {
			t.Errorf("nReaders=%d: dealt %d files of %d", nReaders, len(readers), len(ds.Meta().Files))
		}
	}
}

func TestAssignFilesSpatiallyContiguous(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 4, 1), geom.I3(1, 1, 1), 4, nil)
	ds, _ := Open(dir)
	// With 4 readers over a 4x4 file grid, each reader's files should
	// cluster: the union bounding box of a reader's partitions should
	// cover ~1/4 of the domain, not all of it.
	for rdr := 0; rdr < 4; rdr++ {
		entries := AssignFiles(ds.Meta(), 4, rdr)
		if len(entries) != 4 {
			t.Fatalf("reader %d got %d files", rdr, len(entries))
		}
		u := geom.EmptyBox()
		for _, e := range entries {
			u = u.Union(e.Partition)
		}
		if u.Volume() > 0.3 {
			t.Errorf("reader %d's files span volume %.2f — not spatially contiguous", rdr, u.Volume())
		}
	}
	// Degenerate arguments.
	if AssignFiles(ds.Meta(), 0, 0) != nil || AssignFiles(ds.Meta(), 2, 5) != nil {
		t.Error("invalid reader indices should yield nil")
	}
}

func TestQueryFieldRange(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(4, 1, 1), geom.I3(1, 1, 1), 50, func(cfg *core.WriteConfig) {
		cfg.FieldRanges = true
	})
	ds, _ := Open(dir)
	// position.x summaries: each of the 4 files covers one x-quarter.
	hits, err := ds.QueryFieldRange("position", 0, 0.0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Errorf("x in [0,0.2] hit %d files, want 1", len(hits))
	}
	hits, err = ds.QueryFieldRange("position", 0, 0.3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("x in [0.3,0.6] hit %d files, want 2", len(hits))
	}
	// An empty file's entry carries no range rows
	// (TestWriteMatchesColumnReference in internal/core holds the writer to
	// that): the query skips it instead of keeping it as a file without a
	// summary.
	empty := &ds.meta.Files[0]
	empty.Count, empty.FieldMin, empty.FieldMax = 0, nil, nil
	if hits, err := ds.QueryFieldRange("position", 0, 0, 1); err != nil || len(hits) != 3 {
		t.Errorf("x in [0,1] beside an empty file hit %d files (%v), want 3", len(hits), err)
	}
	if _, err := ds.QueryFieldRange("nope", 0, 0, 1); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ds.QueryFieldRange("position", 7, 0, 1); err == nil {
		t.Error("bad component accepted")
	}
}

func TestQueryFieldRangeWithoutSummariesKeepsAll(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 20, nil)
	ds, _ := Open(dir)
	hits, err := ds.QueryFieldRange("density", 0, 99, 100) // empty range
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("files without summaries must be conservatively kept, got %d", len(hits))
	}
}

func TestOpenMissingDataset(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestOpenRefusesAnEntryOutsideTheDataset: a dataset whose first entry
// names a sibling dataset's file, ../B/file_0.spd, with the checksum
// recomputed, does not open, and the error names the entry; writing such
// metadata is refused before it lands.
func TestOpenRefusesAnEntryOutsideTheDataset(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 2, 1), geom.I3(1, 1, 1), 100, nil)
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	name, probe := meta.Files[0].Name, "../B/file_0.spd"
	meta.Files[0].Name = probe
	if err := format.WriteMeta(nil, dir, meta); err == nil {
		t.Fatal("metadata naming a file outside its dataset was written")
	}
	path := filepath.Join(dir, format.MetaFileName)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	image = bytes.Replace(image, append([]byte{byte(len(name))}, name...), append([]byte{byte(len(probe))}, probe...), 1)
	binary.LittleEndian.PutUint32(image[12:], crc32.ChecksumIEEE(image[16:]))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "file 0 name") {
		t.Fatalf("a dataset naming %s opened: %v", probe, err)
	}
}

func TestReadAdaptiveDataset(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(4, 2, 1)
	cfg := core.WriteConfig{
		Agg:      agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
		Adaptive: true,
	}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(8, func(c *mpi.Comm) error {
		patch := grid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Occupancy(particle.Uintah(), geom.UnitBox(), patch, 60, 0.25, 5, c.Rank())
		_, err := core.Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, st, err := ds.ReadAll(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 480 {
		t.Errorf("read %d particles, want 480", all.Len())
	}
	if st.FilesOpened != len(ds.Meta().Files) {
		t.Errorf("opened %d files", st.FilesOpened)
	}
	// A query outside the occupied region opens nothing.
	_, st, err = ds.QueryBox(geom.NewBox(geom.V3(0.6, 0, 0), geom.V3(0.9, 1, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesOpened != 0 {
		t.Errorf("query in empty region opened %d files", st.FilesOpened)
	}
}

func TestLevelCountMatchesPaperFormula(t *testing.T) {
	// Build a small dataset and compare against lod.NumLevels.
	dir, _ := writeDataset(t, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 500, nil)
	ds, _ := Open(dir)
	if got := ds.LevelCount(1); got != lod.NumLevels(2000, 32, 2) {
		t.Errorf("LevelCount(1) = %d", got)
	}
	if got := ds.LevelCount(64); got != lod.NumLevels(2000, 64*32, 2) {
		t.Errorf("LevelCount(64) = %d", got)
	}
	if ds.LevelCount(0) != ds.LevelCount(1) {
		t.Error("LevelCount(0) should default to one reader")
	}
}
