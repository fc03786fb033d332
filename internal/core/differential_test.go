package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spio/internal/agg"
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
	parts      int
	aggregator func(part int) int
	senders    func(part int) []int
	holds      func(part int, p geom.Vec3) bool
}

// TestWriteMatchesColumnReference holds the bytes Write produces to a
// reference built from columns only. For each file the reference appends
// the senders' particles in sender order with the column kernels
// (AppendBuffer; for a scanning layout AppendFrom of the particles the
// partition's cell holds, in their original order), reorders the columns
// (lod.Reorder) and writes them in already-final order. What the two
// sides share is the sequential encode and the codec; the exchange, the
// gather through the permutation and the row-side bounds and ranges are
// on Write's side only. The file must be equal whole, and meta.spmd's
// bounds and field ranges equal bit for bit — NaNs and negative zeros in
// non-position fields included.
func TestWriteMatchesColumnReference(t *testing.T) {
	const nRanks, perRank, seed = 8, 70, 17
	simDims, factor := geom.I3(4, 2, 1), geom.I3(2, 1, 1)
	domain := geom.UnitBox()
	simGrid := geom.NewGrid(domain, simDims)
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}

	for _, schema := range []*particle.Schema{particle.Uintah(), f32Schema(t)} {
		// Ranks 2 and 3 are empty: a whole aligned partition, and senders
		// that announce nothing elsewhere. The occupied ranks leave the
		// upper third of the domain in x empty so the adaptive grid differs
		// from the imposed one.
		locals := make([]*particle.Buffer, nRanks)
		for r := range locals {
			patch := simGrid.CellBoxLinear(r)
			patch.Hi.X = min(patch.Hi.X, 0.7)
			n := perRank + r
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
			locals[r] = b
		}

		aligned, err := agg.NewLayout(agg.Config{Domain: domain, SimDims: simDims, Factor: factor}, nRanks)
		if err != nil {
			t.Fatal(err)
		}
		patches := make([]geom.Box, nRanks)
		for r := range patches {
			patches[r] = simGrid.CellBoxLinear(r)
		}
		imposed, err := agg.NewImposedLayout(domain, geom.I3(3, 1, 1), patches)
		if err != nil {
			t.Fatal(err)
		}
		var adaptive *agg.Layout
		err = mpi.Run(nRanks, func(c *mpi.Comm) error {
			l, err := agg.BuildAdaptive(c, domain, geom.I3(2, 2, 1), locals[c.Rank()])
			if c.Rank() == 0 {
				adaptive = l
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		scanning := func(l *agg.Layout) refLayout {
			return refLayout{l.NumPartitions(), l.Aggregator, l.Senders,
				func(part int, p geom.Vec3) bool { return l.Grid.LocateLinear(p) == part }}
		}
		layouts := []struct {
			name string
			set  func(*WriteConfig)
			ref  refLayout
		}{
			{"aligned", func(*WriteConfig) {},
				refLayout{aligned.NumPartitions(), aligned.Aggregator, aligned.Senders, nil}},
			{"AggDims", func(cfg *WriteConfig) { cfg.AggDims = geom.I3(3, 1, 1) }, scanning(imposed)},
			{"adaptive", func(cfg *WriteConfig) { cfg.Adaptive, cfg.Agg.Factor = true, geom.I3(2, 1, 1) }, scanning(adaptive)},
		}
		codecs := []struct {
			name string
			spec particle.Spec
		}{
			{"raw", particle.Spec{}},
			{"lossless", particle.LosslessSpec(schema)},
			{"lossy:1e-3", particle.LossySpec(schema, 1e-3)},
		}
		for _, lay := range layouts {
			for _, codec := range codecs {
				for _, heuristic := range []lod.Heuristic{lod.Random, lod.DensityStratified} {
					for _, ranges := range []bool{false, true} {
						cfg := WriteConfig{
							Agg:         agg.Config{Domain: domain, SimDims: simDims, Factor: factor},
							Heuristic:   heuristic,
							Seed:        seed,
							Codec:       codec.spec,
							Checksum:    !ranges,
							FieldRanges: ranges,
						}
						lay.set(&cfg)
						name := fmt.Sprintf("%d fields/%s/%s/%v/ranges=%v", schema.NumFields(), lay.name, codec.name, heuristic, ranges)
						t.Run(name, func(t *testing.T) {
							dir := t.TempDir()
							err := mpi.Run(nRanks, func(c *mpi.Comm) error {
								_, err := Write(c, dir, cfg, locals[c.Rank()])
								return err
							})
							if err != nil {
								t.Fatal(err)
							}
							meta, err := format.ReadMeta(dir)
							if err != nil {
								t.Fatal(err)
							}
							if len(meta.Files) != lay.ref.parts {
								t.Fatalf("%d files, want %d", len(meta.Files), lay.ref.parts)
							}
							for _, fe := range meta.Files {
								part := fe.BoxIndex
								if fe.AggRank != lay.ref.aggregator(part) {
									t.Fatalf("partition %d written by rank %d, want %d", part, fe.AggRank, lay.ref.aggregator(part))
								}
								ref := particle.NewBuffer(schema, 0)
								for _, sender := range lay.ref.senders(part) {
									local := locals[sender]
									if lay.ref.holds == nil {
										ref.AppendBuffer(local)
										continue
									}
									for i := 0; i < local.Len(); i++ {
										if lay.ref.holds(part, local.Position(i)) {
											ref.AppendFrom(local, i)
										}
									}
								}
								// Taken in sender order, as the aggregator takes
								// them: a range keeps the bits of the NaN that set
								// it last.
								bounds := ref.Bounds()
								mins, maxs := ref.FieldRanges()
								lod.Reorder(ref, heuristic, reorderSeed(seed, part))

								hdr := format.DataHeader{
									LOD:        cfg.withDefaults().LOD,
									Heuristic:  heuristic,
									Seed:       reorderSeed(seed, part),
									PayloadCRC: cfg.Checksum,
									Codec:      codec.spec,
								}
								refPath := filepath.Join(t.TempDir(), fe.Name)
								rows := ref.Rows()
								err := format.WriteDataFile(nil, refPath, &hdr, rows, nil)
								rows.Release()
								if err != nil {
									t.Fatal(err)
								}
								want, err := os.ReadFile(refPath)
								if err != nil {
									t.Fatal(err)
								}
								got, err := os.ReadFile(filepath.Join(dir, fe.Name))
								if err != nil {
									t.Fatal(err)
								}
								if !bytes.Equal(got, want) {
									t.Errorf("%s (%d particles): %d bytes differ from the reference's %d", fe.Name, ref.Len(), len(got), len(want))
								}
								df, err := format.OpenDataFile(filepath.Join(dir, fe.Name))
								if err != nil {
									t.Fatal(err)
								}
								if df.Header.Bounds != bounds || fe.Bounds != bounds || fe.Count != int64(ref.Len()) {
									t.Errorf("%s: header bounds %v, metadata bounds %v and count %d, want %v and %d",
										fe.Name, df.Header.Bounds, fe.Bounds, fe.Count, bounds, ref.Len())
								}
								df.Close()
								if !ranges {
									mins, maxs = nil, nil
								}
								if !slices.Equal(bits(fe.FieldMin), bits(mins)) || !slices.Equal(bits(fe.FieldMax), bits(maxs)) {
									t.Errorf("%s: field ranges %v / %v, want %v / %v", fe.Name, fe.FieldMin, fe.FieldMax, mins, maxs)
								}
							}
							noSegmentsHeld(t)
						})
					}
				}
			}
		}
	}
}
