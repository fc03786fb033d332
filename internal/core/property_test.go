package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"spio/internal/agg"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// Randomized end-to-end property tests: for random decompositions,
// factors, schemas and LOD parameters, a write must produce a dataset
// whose files conserve the input multiset and respect spatial locality.

// randomSchema builds a schema with 1-5 random extra fields.
func randomSchema(r *rand.Rand) *particle.Schema {
	fields := []particle.Field{{Name: particle.PositionField, Kind: particle.Float64, Components: 3}}
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		kind := particle.Float64
		if r.Intn(2) == 0 {
			kind = particle.Float32
		}
		fields = append(fields, particle.Field{
			Name:       fmt.Sprintf("v%d", i),
			Kind:       kind,
			Components: 1 + r.Intn(4),
		})
	}
	return particle.MustSchema(fields)
}

// randomConfig picks a random decomposition (≤ 32 ranks) and a factor
// dividing it.
func randomConfig(r *rand.Rand) (geom.Idx3, geom.Idx3) {
	pick := func() (int, int) {
		dims := []int{1, 2, 4}
		d := dims[r.Intn(len(dims))]
		var fs []int
		for _, f := range []int{1, 2, 4} {
			if d%f == 0 {
				fs = append(fs, f)
			}
		}
		return d, fs[r.Intn(len(fs))]
	}
	dx, fx := pick()
	dy, fy := pick()
	dz, fz := pick()
	return geom.I3(dx, dy, dz), geom.I3(fx, fy, fz)
}

func TestRandomizedWriteInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 12; trial++ {
		simDims, factor := randomConfig(r)
		nRanks := simDims.Volume()
		schema := randomSchema(r)
		perRank := 10 + r.Intn(200)
		lodParams := lod.Params{BasePerReader: 1 + r.Intn(64), Scale: 2 + r.Intn(3)}
		heuristic := lod.Random
		if r.Intn(2) == 0 {
			heuristic = lod.DensityStratified
		}
		dir := t.TempDir()
		cfg := WriteConfig{
			Agg:         agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor},
			LOD:         lodParams,
			Heuristic:   heuristic,
			Seed:        int64(trial),
			FieldRanges: r.Intn(2) == 0,
			Checksum:    r.Intn(2) == 0,
		}
		grid := geom.NewGrid(geom.UnitBox(), simDims)
		err := mpi.Run(nRanks, func(c *mpi.Comm) error {
			local := particle.Uniform(schema, grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, int64(trial), c.Rank())
			_, err := Write(c, dir, cfg, local)
			return err
		})
		if err != nil {
			t.Fatalf("trial %d (%v/%v, %v): %v", trial, simDims, factor, schema, err)
		}

		meta, err := format.ReadMeta(dir)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if meta.Total != int64(nRanks*perRank) {
			t.Fatalf("trial %d: total %d, want %d", trial, meta.Total, nRanks*perRank)
		}
		if len(meta.Files) != cfg.Agg.NumFiles() {
			t.Fatalf("trial %d: %d files, want %d", trial, len(meta.Files), cfg.Agg.NumFiles())
		}
		if !meta.Schema.Equal(schema) {
			t.Fatalf("trial %d: schema corrupted", trial)
		}
		// Every file's particles are inside its partition and counted.
		var sum int64
		for _, fe := range meta.Files {
			df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if cfg.Checksum {
				if err := df.VerifyPayload(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			buf, err := df.ReadAll()
			df.Close()
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			sum += int64(buf.Len())
			for i := 0; i < buf.Len(); i++ {
				p := buf.Position(i)
				if !fe.Partition.Contains(p) && !fe.Partition.ContainsClosed(p) {
					t.Fatalf("trial %d: particle outside partition", trial)
				}
			}
		}
		if sum != meta.Total {
			t.Fatalf("trial %d: files hold %d, metadata says %d", trial, sum, meta.Total)
		}
	}
}

func TestUnusualLODParamsEndToEnd(t *testing.T) {
	// A dataset written with P=8, S=4 must honour its own schedule when
	// read back.
	dir := t.TempDir()
	simDims := geom.I3(2, 1, 1)
	cfg := WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
		LOD: lod.Params{BasePerReader: 8, Scale: 4},
	}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 100, 1, c.Rank())
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
	if meta.LOD.BasePerReader != 8 || meta.LOD.Scale != 4 {
		t.Errorf("LOD params = %+v", meta.LOD)
	}
	df, err := format.OpenDataFile(filepath.Join(dir, meta.Files[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	// Single file of 200 particles, per-file base 8, S=4: levels are
	// 8, 32, 128, 32.
	for i, want := range []int64{8, 40, 168, 200} {
		buf, err := df.ReadPrefix(lod.PrefixCount(df.Header.Count, 8, df.Header.LOD.Scale, i+1))
		if err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != want {
			t.Errorf("levels %d: %d particles, want %d", i+1, buf.Len(), want)
		}
	}
}
