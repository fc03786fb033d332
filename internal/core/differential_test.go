package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/fault"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// f32Schema has float32 fields of both shapes beside float64 ones.
func f32Schema(t *testing.T) *particle.Schema {
	t.Helper()
	s, err := particle.NewSchema([]particle.Field{
		{Name: particle.PositionField, Kind: particle.Float64, Components: 3},
		{Name: "vel32", Kind: particle.Float32, Components: 3},
		{Name: "mass", Kind: particle.Float64, Components: 1},
		{Name: "id", Kind: particle.Float64, Components: 1},
		{Name: "tag", Kind: particle.Float32, Components: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refLayout is what the reference needs of a layout: who aggregates a
// partition, who sends to it in what order, and which of a sender's
// particles are the partition's (nil: all of them).
type refLayout struct {
	aggregator func(part int) int
	senders    func(part int) []int
	holds      func(part int, p geom.Vec3) bool
}

// The contract's world: eight ranks on a 4x2x1 patch grid.
const contractRanks, contractSeed = 8, 17

var contractSimDims = geom.I3(4, 2, 1)

// noSyncFS is the real filesystem without fsync, every write of the
// contract's: it checks what the files hold, not that they are durable, and
// the fsyncs would be most of its time.
type noSyncFS struct{ fault.WriteFS }

type noSyncFile struct{ fault.File }

func (noSyncFile) Sync() error        { return nil }
func (noSyncFS) SyncDir(string) error { return nil }

func (fs noSyncFS) Create(path string) (fault.File, error) {
	f, err := fs.WriteFS.Create(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// contractInput is one distribution's particles: each rank's buffer, and
// all of them in rank order with every id's index.
type contractInput struct {
	domain geom.Box
	locals []*particle.Buffer
	all    *particle.Buffer
	byID   map[float64]int
}

// contractInputs generates the distributions of the grid's dist axis for
// schema. Every particle gets a unique id, the key the files' records are
// matched to their input by.
//   - uniform: uniform per patch, ranks 2 and 3 empty, the upper third of
//     the domain in x empty, NaNs and negative zeros in a float64 and a
//     float32 field.
//   - face-heavy: particles on the faces, edges and corners of their
//     patches; ranks 3, 5 and 6 with every particle on the domain's closed
//     upper x, y and z face, rank 7 with one particle on the x face. Its
//     domain is far from the origin, where the adaptive fit's inflation is
//     below the coordinates' precision.
//   - clustered: three Gaussian blobs per patch.
//   - occupancy: every particle in the lower quarter of the domain in x.
func contractInputs(schema *particle.Schema) map[string]*contractInput {
	far := geom.NewBox(geom.V3(1e9, 1e9, 1e9), geom.V3(1e9+1, 1e9+1, 1e9+1))
	gens := map[string]struct {
		domain geom.Box
		gen    func(r int, patch geom.Box, domain geom.Box) *particle.Buffer
	}{
		"uniform": {geom.UnitBox(), func(r int, patch, _ geom.Box) *particle.Buffer {
			patch.Hi.X = min(patch.Hi.X, 0.7)
			n := 70 + r
			if r == 2 || r == 3 || patch.IsEmpty() {
				n = 0
			}
			b := particle.Uniform(schema, patch, n, 23, r)
			if n > 0 {
				// Field 2 is a float64 that no codec quantizes and the last
				// field a float32 scalar, in both schemas.
				f64, f32 := b.Float64Field(2), b.Float32Field(schema.NumFields()-1)
				f64[0], f64[len(f64)-1] = math.NaN(), math.Copysign(0, -1)
				f32[1], f32[len(f32)-1] = float32(math.Copysign(0, -1)), float32(math.NaN())
				if r == 5 {
					f64[0], f32[len(f32)-1] = 0, 0
				}
			}
			return b
		}},
		"face-heavy": {far, func(r int, patch, domain geom.Box) *particle.Buffer {
			if r == 7 {
				b := particle.Uniform(schema, patch, 1, 29, r)
				b.SetPosition(0, geom.V3(patch.Hi.X, patch.Center().Y, patch.Center().Z))
				return b
			}
			b := particle.Uniform(schema, patch, 40, 29, r)
			lo, hi, mid := patch.Lo, patch.Hi, patch.Center()
			for i, p := range []geom.Vec3{
				geom.V3(hi.X, mid.Y, mid.Z), geom.V3(hi.X, hi.Y, mid.Z), hi,
				geom.V3(lo.X, mid.Y, mid.Z), lo,
			} {
				b.SetPosition(i, p)
			}
			if axis := map[int]int{3: 0, 5: 1, 6: 2}; r == 3 || r == 5 || r == 6 {
				for i := 0; i < b.Len(); i++ {
					b.SetPosition(i, b.Position(i).WithComp(axis[r], domain.Hi.Comp(axis[r])))
				}
			}
			return b
		}},
		"clustered": {geom.UnitBox(), func(r int, patch, _ geom.Box) *particle.Buffer {
			return particle.Clustered(schema, patch, 60, 3, 31, r)
		}},
		"occupancy": {geom.UnitBox(), func(r int, patch, domain geom.Box) *particle.Buffer {
			return particle.Occupancy(schema, domain, patch, 60, 0.25, 37, r)
		}},
	}
	out := make(map[string]*contractInput, len(gens))
	for name, g := range gens {
		in := &contractInput{domain: g.domain, all: particle.NewBuffer(schema, 0), byID: make(map[float64]int)}
		grid := geom.NewGrid(g.domain, contractSimDims)
		ids := schema.FieldIndex("id")
		for r := 0; r < contractRanks; r++ {
			b := g.gen(r, grid.CellBoxLinear(r), g.domain)
			for i := 0; i < b.Len(); i++ {
				b.Float64Field(ids)[i] = float64(in.all.Len())
				in.byID[float64(in.all.Len())] = in.all.Len()
				in.all.AppendFrom(b, i)
			}
			in.locals = append(in.locals, b)
		}
		out[name] = in
	}
	return out
}

// contractCell is one cell of TestWriteMatchesColumnReference.
type contractCell struct {
	schema    int
	layout    string // aligned, AggDims (an imposed grid) or adaptive
	codec     string
	heuristic lod.Heuristic
	ranges    bool
	async     bool
	dist      string
	factor    string // fpp (1x1x1), 2x1x1 or shared (the whole domain)
	p8s4      bool   // LOD P = 8, S = 4 instead of the default
}

// product names the cell's place in the full product, its name before the
// dealt axes were added; dealt names its dealt values. A cell runs as
// product/dealt, so each product cell is a subtest of its own.
func (c contractCell) product(schema *particle.Schema) string {
	return fmt.Sprintf("%d fields/%s/%s/%v/ranges=%v", schema.NumFields(), c.layout, c.codec, c.heuristic, c.ranges)
}

func (c contractCell) dealt() string {
	mode, lodName := "sync", "default"
	if c.async {
		mode = "async"
	}
	if c.p8s4 {
		lodName = "P8S4"
	}
	return fmt.Sprintf("%s/%s/factor=%s/lod=%s", mode, c.dist, c.factor, lodName)
}

var (
	contractDists   = []string{"uniform", "face-heavy", "clustered", "occupancy"}
	contractFactors = map[string]geom.Idx3{"fpp": geom.I3(1, 1, 1), "2x1x1": geom.I3(2, 1, 1), "shared": contractSimDims}
	// contractAggDims is the imposed grid of each factor: one partition
	// per patch, a 3x1x1 grid across the patches, one partition.
	contractAggDims = map[string]geom.Idx3{"fpp": contractSimDims, "2x1x1": geom.I3(3, 1, 1), "shared": geom.I3(1, 1, 1)}
)

// contractCells enumerates the grid: schema x layout x codec x heuristic
// x ranges is the full product, and the other axes are dealt over it. In
// each (layout, codec) pair's eight cells every dealt axis is a seeded
// shuffle of a list holding each of its values at least once, so every
// value meets every layout and every codec.
func contractCells() []contractCell {
	rng := rand.New(rand.NewSource(48))
	deal := func(values int) []int {
		out := make([]int, 8)
		for i := range out {
			out[i] = i % values
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var cells []contractCell
	for _, layout := range []string{"aligned", "AggDims", "adaptive"} {
		for _, codec := range []string{"raw", "lossless", "lossy:1e-3"} {
			async, dist, factor, p8s4 := deal(2), deal(len(contractDists)), deal(3), deal(2)
			slot := 0
			for schema := 0; schema < 2; schema++ {
				for _, heuristic := range []lod.Heuristic{lod.Random, lod.DensityStratified} {
					for _, ranges := range []bool{false, true} {
						cells = append(cells, contractCell{
							schema: schema, layout: layout, codec: codec, heuristic: heuristic, ranges: ranges,
							async:  async[slot] == 1,
							dist:   contractDists[dist[slot]],
							factor: []string{"fpp", "2x1x1", "shared"}[factor[slot]],
							p8s4:   p8s4[slot] == 1,
						})
						slot++
					}
				}
			}
		}
	}
	return cells
}

// TestWriteMatchesColumnReference is the collective write's one contract. Each cell
// writes one distribution through one configuration and holds the files
// to two things.
//
// From the bytes alone, with format and no agg or reader code (checkFiles):
// the records are the input multiset, matched by id (lossy: within the
// bound); each lies in its file's partition, closed faces included, and
// in its header bounds, which equal the metadata's and the records' tight
// box; the counts add up to the metadata's total and the input's; the file
// count, names and aggregator ranks are the paper's uniform selection over
// rank space; the field ranges are the records'; every level boundary is a
// block boundary of a compressed file, and its prefix is the raw write's,
// record for record (lossy: within the bound); the payload checksum
// verifies. An async cell's files equal a sync write's byte for byte, and
// the buffer it wrote is scribbled on once Wait returns. Every cell also
// has two writes rejected on every rank: one rank holding a NaN position,
// and one a position outside the domain.
//
// And to a reference built from columns only: for each file the senders'
// particles appended in sender order with the column kernels (AppendBuffer;
// for a scanning layout AppendFrom of the particles the partition's cell
// holds, in their original order), reordered (lod.Reorder) and written in
// already-final order. What the two sides share is the sequential encode
// and the codec; the exchange, the gather through the permutation and the
// row-side bounds and ranges are on Write's side only. The file must be
// equal whole, and meta.spmd's bounds and field ranges equal bit for bit —
// NaNs and negative zeros in non-position fields included.
func TestWriteMatchesColumnReference(t *testing.T) {
	schemas := []*particle.Schema{particle.Uintah(), f32Schema(t)}
	inputs := []map[string]*contractInput{contractInputs(schemas[0]), contractInputs(schemas[1])}
	for ci, cell := range contractCells() {
		schema, in := schemas[cell.schema], inputs[cell.schema][cell.dist]
		var spec particle.Spec
		switch cell.codec {
		case "lossless":
			spec = particle.LosslessSpec(schema)
		case "lossy:1e-3":
			spec = particle.LossySpec(schema, 1e-3)
		}
		cfg := WriteConfig{
			Agg:         agg.Config{Domain: in.domain, SimDims: contractSimDims, Factor: contractFactors[cell.factor]},
			Heuristic:   cell.heuristic,
			Seed:        contractSeed,
			Codec:       spec,
			Checksum:    !cell.ranges,
			FieldRanges: cell.ranges,
			FS:          noSyncFS{fault.OS()},
		}
		switch cell.layout {
		case "AggDims":
			cfg.AggDims = contractAggDims[cell.factor]
		case "adaptive":
			cfg.Adaptive = true
		}
		if cell.p8s4 {
			cfg.LOD = lod.Params{BasePerReader: 8, Scale: 4}
		}
		t.Run(cell.product(schema), func(t *testing.T) {
			t.Run(cell.dealt(), func(t *testing.T) {
				rejectBadInput(t, cfg, cell.async, in, ci%contractRanks)
				dir := t.TempDir()
				contractWrite(t, dir, cfg, cell.async, in.locals)
				rawDir := ""
				if cell.codec != "raw" {
					rawCfg := cfg
					rawCfg.Codec = particle.Spec{}
					rawDir = t.TempDir()
					contractWrite(t, rawDir, rawCfg, false, in.locals)
				}
				checkFiles(t, dir, rawDir, cfg, cell, in)
				if cell.async {
					syncDir := t.TempDir()
					contractWrite(t, syncDir, cfg, false, in.locals)
					sameFiles(t, dir, syncDir)
				}
				checkAgainstReference(t, dir, cfg, in)
				noSegmentsHeld(t)
			})
		})
	}
}

// contractWrite writes locals (one buffer per rank) into dir, with Write
// or with WriteAsync on a copy that is scribbled on once Wait returns. A
// write that does not end on every rank fails the cell, not the suite.
func contractWrite(t *testing.T, dir string, cfg WriteConfig, async bool, locals []*particle.Buffer) {
	t.Helper()
	err := runWithWatchdog(t, len(locals), 30*time.Second, func(c *mpi.Comm) error {
		if !async {
			_, err := Write(c, dir, cfg, locals[c.Rank()])
			return err
		}
		local := particle.NewBuffer(locals[c.Rank()].Schema(), 0)
		local.AppendBuffer(locals[c.Rank()])
		_, err := WriteAsync(c, dir, cfg, local).Wait()
		for i := 0; i < local.Len(); i++ {
			local.SetPosition(i, geom.V3(math.NaN(), math.NaN(), math.NaN()))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rejectBadInput writes the clean input with rank bad holding one particle
// at a NaN position, and then outside the domain: every rank must fail,
// bad with its own cause and the rest with the agreed summary, and nothing
// may be written.
func rejectBadInput(t *testing.T, cfg WriteConfig, async bool, in *contractInput, bad int) {
	t.Helper()
	dir := t.TempDir()
	for _, tc := range []struct {
		at   geom.Vec3
		want string
	}{
		{geom.V3(math.NaN(), in.domain.Lo.Y, in.domain.Lo.Z), "non-finite"},
		{in.domain.Hi.Add(geom.V3(0.5, 0, 0)), "outside"},
	} {
		errs := make([]error, contractRanks)
		err := runWithWatchdog(t, contractRanks, 30*time.Second, func(c *mpi.Comm) error {
			local := in.locals[c.Rank()]
			if c.Rank() == bad {
				local = particle.NewBuffer(in.all.Schema(), 0)
				local.AppendFrom(in.all, 0)
				local.SetPosition(0, tc.at)
			}
			if async {
				_, errs[c.Rank()] = WriteAsync(c, dir, cfg, local).Wait()
			} else {
				_, errs[c.Rank()] = Write(c, dir, cfg, local)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, werr := range errs {
			want := "input validation failed on 1 of 8 ranks"
			if r == bad {
				want = tc.want
			}
			if werr == nil || !strings.Contains(werr.Error(), want) {
				t.Errorf("particle at %v on rank %d: rank %d returned %v, want an error containing %q", tc.at, bad, r, werr, want)
			}
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("a rejected write left %d entries behind", len(ents))
		}
	}
}

// checkFiles holds the dataset in dir to the write's contract from its
// bytes, read with format alone; rawDir, when set, holds the raw-codec
// write of the same input.
func checkFiles(t *testing.T, dir, rawDir string, cfg WriteConfig, cell contractCell, in *contractInput) {
	t.Helper()
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The layout the configuration asks for, computed here.
	parts, factor := contractSimDims.Div(cfg.Agg.Factor), cfg.Agg.Factor
	if cell.layout == "AggDims" {
		parts, factor = cfg.AggDims, geom.Idx3{}
	}
	wantLOD := lod.DefaultParams()
	if cfg.LOD != (lod.Params{}) {
		wantLOD = cfg.LOD
	}
	if meta.Domain != in.domain || meta.SimDims != contractSimDims || meta.PartitionFactor != factor ||
		meta.AggDims != parts || !meta.Schema.Equal(in.all.Schema()) || meta.LOD != wantLOD || meta.Heuristic != cfg.Heuristic {
		t.Fatalf("metadata says domain %v, sim dims %v, factor %v, agg dims %v, LOD %+v, heuristic %v; want %v, %v, %v, %v, %+v, %v",
			meta.Domain, meta.SimDims, meta.PartitionFactor, meta.AggDims, meta.LOD, meta.Heuristic,
			in.domain, contractSimDims, factor, parts, wantLOD, cfg.Heuristic)
	}
	nParts := parts.Volume()
	if len(meta.Files) != nParts {
		t.Fatalf("%d files, want %d", len(meta.Files), nParts)
	}
	names := map[string]bool{format.MetaFileName: true}
	seenPart := make([]bool, nParts)
	seen := make(map[float64]bool, in.all.Len())
	var sum, payload, rawPayload int64
	for _, fe := range meta.Files {
		// The paper's uniform selection over rank space (Section 3.2).
		part := fe.BoxIndex
		if part < 0 || part >= nParts || seenPart[part] {
			t.Fatalf("%s: partition %d twice or outside [0,%d)", fe.Name, part, nParts)
		}
		seenPart[part] = true
		if want := part * contractRanks / nParts; fe.AggRank != want || fe.Name != format.DataFileName(want) {
			t.Errorf("partition %d written by rank %d as %s, want rank %d as %s", part, fe.AggRank, fe.Name, want, format.DataFileName(want))
		}
		names[fe.Name] = true
		if cell.layout != "adaptive" {
			if want := geom.NewGrid(in.domain, parts).CellBoxLinear(part); fe.Partition != want {
				t.Errorf("%s: partition %v, want %v", fe.Name, fe.Partition, want)
			}
		} else if hull := in.all.Bounds(); !hugs(fe.Partition, hull) {
			t.Errorf("%s: adaptive partition %v reaches past the occupied %v", fe.Name, fe.Partition, hull)
		} else if cell.dist == "occupancy" && fe.Count == 0 {
			// Section 6: an adaptive grid over uniformly occupied space
			// assigns no aggregator to empty space.
			t.Errorf("%s: adaptive partition %v of an evenly occupied region is empty", fe.Name, fe.Partition)
		}

		df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		defer df.Close()
		hdr := df.Header
		if hdr.Count != fe.Count || hdr.Bounds != fe.Bounds || hdr.LOD != wantLOD || hdr.Heuristic != cfg.Heuristic ||
			hdr.Seed != reorderSeed(cfg.Seed, part) || hdr.PayloadCRC != cfg.Checksum || df.Compressed() != (cell.codec != "raw") {
			t.Errorf("%s: header %+v against metadata count %d, bounds %v", fe.Name, hdr, fe.Count, fe.Bounds)
		}
		if cfg.Checksum {
			if err := df.VerifyPayload(); err != nil {
				t.Error(err)
			}
		}
		recs, err := df.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		// Each record is an input's, once: its twin, the raw input, is
		// what locality, bounds and ranges are taken over.
		twins := particle.NewBuffer(recs.Schema(), recs.Len())
		for i, id := range recs.Float64Field(recs.Schema().FieldIndex("id")) {
			j, ok := in.byID[id]
			if !ok || seen[id] {
				t.Fatalf("%s: record %d has id %v, not an input's or seen before", fe.Name, i, id)
			}
			seen[id] = true
			if !sameRecord(recs, i, in.all, j, cfg.Codec) {
				t.Fatalf("%s: record %d (id %v) differs from its input", fe.Name, i, id)
			}
			twins.AppendFrom(in.all, j)
			if p := in.all.Position(j); !fe.Partition.ContainsClosed(p) || !hdr.Bounds.ContainsClosed(p) {
				t.Fatalf("%s: particle %v outside partition %v or bounds %v", fe.Name, p, fe.Partition, hdr.Bounds)
			}
		}
		sum += int64(recs.Len())
		if int64(recs.Len()) != fe.Count {
			t.Errorf("%s holds %d records, metadata says %d", fe.Name, recs.Len(), fe.Count)
		}
		if tight := twins.Bounds(); tight != hdr.Bounds {
			t.Errorf("%s: bounds %v, its records' tight box %v", fe.Name, hdr.Bounds, tight)
		}
		var mins, maxs []float64
		if cfg.FieldRanges {
			mins, maxs = twins.FieldRanges()
		}
		if !sameRanges(fe.FieldMin, mins) || !sameRanges(fe.FieldMax, maxs) {
			t.Errorf("%s: field ranges %v / %v, its records' %v / %v", fe.Name, fe.FieldMin, fe.FieldMax, mins, maxs)
		}

		// Level boundaries: every one a block boundary of a compressed
		// file, and each prefix the raw write's.
		var raw *format.DataFile
		if rawDir != "" {
			if raw, err = format.OpenDataFile(filepath.Join(rawDir, fe.Name)); err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			payload, rawPayload = payload+df.PayloadBytes(), rawPayload+raw.PayloadBytes()
		}
		blockEnds := map[int64]bool{}
		stride := int64(recs.Schema().Stride())
		at := int64(0)
		if err := df.Scan(0, hdr.Count, nil, nil, func(b []byte, _ []int32) error {
			at += int64(len(b)) / stride
			blockEnds[at] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		end := int64(0)
		for _, size := range lod.LevelSizes(hdr.Count, int64(wantLOD.BasePerReader), wantLOD.Scale) {
			end += size
			if df.Compressed() && !blockEnds[end] {
				t.Errorf("%s: level boundary %d is inside a compressed block", fe.Name, end)
			}
			pre, err := df.ReadPrefix(end)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSpec := recs, particle.Spec{}
			if raw != nil {
				if want, err = raw.ReadPrefix(end); err != nil {
					t.Fatal(err)
				}
				wantSpec = cfg.Codec
			}
			if int64(pre.Len()) != end {
				t.Fatalf("%s: prefix of %d holds %d records", fe.Name, end, pre.Len())
			}
			for i := 0; i < pre.Len(); i++ {
				if !sameRecord(pre, i, want, i, wantSpec) {
					t.Fatalf("%s: record %d of the %d-record prefix differs from the raw write's", fe.Name, i, end)
				}
			}
		}
	}
	if meta.Total != sum || sum != int64(in.all.Len()) || len(seen) != in.all.Len() {
		t.Errorf("metadata total %d, files %d, distinct inputs %d, inputs %d", meta.Total, sum, len(seen), in.all.Len())
	}
	if rawDir != "" && payload >= rawPayload {
		t.Errorf("compressed payloads take %d bytes, raw %d", payload, rawPayload)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !names[e.Name()] {
			t.Errorf("stray %s in the dataset", e.Name())
		}
	}
	if len(ents) != len(names) {
		t.Errorf("%d entries in the dataset, want %d", len(ents), len(names))
	}
}

// hugs reports whether partition lies in the occupied box, up to the
// inflation that puts the box's upper faces inside a half-open grid.
func hugs(partition, occupied geom.Box) bool {
	s := occupied.Size()
	tol := 1e-6 * (s.X + s.Y + s.Z + 1)
	grown := geom.Box{Lo: occupied.Lo, Hi: occupied.Hi.Add(geom.V3(tol, tol, tol))}
	return grown.ContainsClosed(partition.Lo) && grown.ContainsClosed(partition.Hi)
}

// sameRecord reports whether record i of got is record j of want: bit for
// bit, except a field spec quantizes, which must lie within its bound.
func sameRecord(got *particle.Buffer, i int, want *particle.Buffer, j int, spec particle.Spec) bool {
	s := got.Schema()
	for fi := 0; fi < s.NumFields(); fi++ {
		c := s.Field(fi).Components
		if s.Field(fi).Kind == particle.Float32 {
			a, b := got.Float32Field(fi)[i*c:(i+1)*c], want.Float32Field(fi)[j*c:(j+1)*c]
			for k := range a {
				if math.Float32bits(a[k]) != math.Float32bits(b[k]) {
					return false
				}
			}
			continue
		}
		a, b := got.Float64Field(fi)[i*c:(i+1)*c], want.Float64Field(fi)[j*c:(j+1)*c]
		for k := range a {
			if spec.Fields != nil && spec.Fields[fi].ID == particle.CodecQuantize {
				if !(math.Abs(a[k]-b[k]) <= spec.Fields[fi].ErrBound) {
					return false
				}
			} else if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return false
			}
		}
	}
	return true
}

// sameRanges compares field ranges bit for bit, except that any NaN
// equals any other: a NaN range keeps the bits of whichever NaN the scan
// met last, and the file's order is not the scan's.
func sameRanges(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	})
}

// sameFiles requires two datasets to hold the same files, byte for byte.
func sameFiles(t *testing.T, dir, other string) {
	t.Helper()
	got, want := hashDir(t, dir), hashDir(t, other)
	if len(got) != len(want) {
		t.Fatalf("%d files, the sync write %d", len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s differs from the sync write's", name)
		}
	}
}

// checkAgainstReference holds each file of the dataset in dir to the
// column reference of its partition.
func checkAgainstReference(t *testing.T, dir string, cfg WriteConfig, in *contractInput) {
	t.Helper()
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	var layout *agg.Layout
	var err error
	switch {
	case cfg.Adaptive:
		err = mpi.Run(contractRanks, func(c *mpi.Comm) error {
			l, err := agg.BuildAdaptive(c, in.domain, contractSimDims.Div(cfg.Agg.Factor), in.locals[c.Rank()])
			if c.Rank() == 0 {
				layout = l
			}
			return err
		})
	case cfg.AggDims != (geom.Idx3{}):
		simGrid := geom.NewGrid(in.domain, contractSimDims)
		patches := make([]geom.Box, contractRanks)
		for r := range patches {
			patches[r] = simGrid.CellBoxLinear(r)
		}
		layout, err = agg.NewImposedLayout(in.domain, cfg.AggDims, patches)
	default:
		layout, err = agg.NewLayout(cfg.Agg, contractRanks)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := refLayout{layout.Aggregator, layout.Senders, nil}
	if cfg.Adaptive || cfg.AggDims != (geom.Idx3{}) {
		ref.holds = func(part int, p geom.Vec3) bool { return layout.Grid.LocateLinear(p) == part }
	}
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	schema, refDir := in.all.Schema(), t.TempDir()
	for _, fe := range meta.Files {
		part := fe.BoxIndex
		if fe.AggRank != ref.aggregator(part) {
			t.Fatalf("partition %d written by rank %d, want %d", part, fe.AggRank, ref.aggregator(part))
		}
		want := particle.NewBuffer(schema, 0)
		for _, sender := range ref.senders(part) {
			local := in.locals[sender]
			if ref.holds == nil {
				want.AppendBuffer(local)
				continue
			}
			for i := 0; i < local.Len(); i++ {
				if ref.holds(part, local.Position(i)) {
					want.AppendFrom(local, i)
				}
			}
		}
		// Taken in sender order, as the aggregator takes them: a range
		// keeps the bits of the NaN that set it last.
		bounds := want.Bounds()
		mins, maxs := want.FieldRanges()
		lod.Reorder(want, cfg.Heuristic, reorderSeed(cfg.Seed, part))

		hdr := format.DataHeader{
			LOD:        cfg.withDefaults().LOD,
			Heuristic:  cfg.Heuristic,
			Seed:       reorderSeed(cfg.Seed, part),
			PayloadCRC: cfg.Checksum,
			Codec:      cfg.Codec,
		}
		refPath := filepath.Join(refDir, fe.Name)
		rows := want.Rows()
		err := format.WriteDataFile(cfg.FS, refPath, &hdr, rows, nil)
		rows.Release()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(refPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, fe.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s (%d particles): %d bytes differ from the reference's %d", fe.Name, want.Len(), len(got), len(wantBytes))
		}
		if fe.Bounds != bounds || fe.Count != int64(want.Len()) {
			t.Errorf("%s: metadata bounds %v and count %d, want %v and %d", fe.Name, fe.Bounds, fe.Count, bounds, want.Len())
		}
		if !cfg.FieldRanges {
			mins, maxs = nil, nil
		}
		if !slices.Equal(bits(fe.FieldMin), bits(mins)) || !slices.Equal(bits(fe.FieldMax), bits(maxs)) {
			t.Errorf("%s: field ranges %v / %v, want %v / %v", fe.Name, fe.FieldMin, fe.FieldMax, mins, maxs)
		}
	}
}
