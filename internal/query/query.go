// Package query builds the region-based analysis operations the paper
// cites as the consumers of its layout (Section 3: "a range of standard
// analysis and visualization tasks are dependent on region-based
// queries, e.g.: nearest neighbour search, vector field integration,
// stencil operations") on top of the metadata-driven reader:
//
//   - KNN: k-nearest-neighbour search that grows its query box until the
//     k-th neighbour is provably inside the searched region, reading
//     only the files the metadata says intersect it.
//   - Halo: a patch read plus a ghost margin, the access pattern of
//     stencil operations and distributed-rendering tiles.
//   - DensityGrid: an approximate density field computed from a low LOD
//     level, scaled by the sampling fraction.
package query

import (
	"fmt"
	"math"
	"sort"

	"spio/internal/geom"
	"spio/internal/particle"
	"spio/internal/reader"
)

// KNNResult is one neighbour.
type KNNResult struct {
	// Index is the neighbour's position in the returned buffer.
	Index int
	// Distance is the Euclidean distance to the query point.
	Distance float64
}

// KNN returns the k particles nearest to p as a buffer (nearest first)
// plus their distances. It expands a box around p until it provably
// contains the k nearest particles: once k candidates exist and the
// k-th distance is no larger than the box's clearance, no closer
// particle can be outside.
func KNN(ds *reader.Dataset, p geom.Vec3, k int) (*particle.Buffer, []float64, reader.Stats, error) {
	rows, dists, st, err := KNNRows(ds, p, k)
	if err != nil {
		return nil, nil, st, err
	}
	return rows.Buffer(), dists, st, nil
}

// KNNRows is KNN for a caller that sends the answer on instead of looking
// at it (a server): the candidates are ranked where the filter staged
// them and the k winners gathered out of them, as rows the caller owns.
func KNNRows(ds *reader.Dataset, p geom.Vec3, k int) (*particle.Rows, []float64, reader.Stats, error) {
	var st reader.Stats
	if k <= 0 {
		return nil, nil, st, fmt.Errorf("query: k must be positive, got %d", k)
	}
	meta := ds.Meta()
	if meta.Total < int64(k) {
		return nil, nil, st, fmt.Errorf("query: dataset holds %d particles, asked for %d", meta.Total, k)
	}
	// Initial radius from the mean density, with slack.
	volume := meta.Domain.Volume()
	r := 1.5 * math.Cbrt(float64(k)/float64(meta.Total)*volume/(4.0/3.0*math.Pi))
	if r <= 0 || math.IsNaN(r) {
		r = meta.Domain.Size().Len() / 16
	}
	maxR := meta.Domain.Size().Len() // covers everything

	for {
		box := geom.NewBox(p.Sub(geom.V3(r, r, r)), p.Add(geom.V3(r, r, r)))
		rows, qst, err := ds.QueryBoxRows(box, reader.Options{})
		if err != nil {
			return nil, nil, st, err
		}
		st = qst // keep the stats of the final (successful) pass
		found := rows.Len()
		if found >= k {
			order := make([]int, found)
			all := make([]float64, found)
			for i := range order {
				order[i], all[i] = i, p.Dist(rows.Position(i))
			}
			sort.Slice(order, func(a, b int) bool { return all[order[a]] < all[order[b]] })
			// The box guarantees correctness only within its clearance
			// around p (it is clipped mentally to the sphere of radius r).
			if kth := all[order[k-1]]; kth <= r || r >= maxR {
				dists := make([]float64, k)
				for i := range dists {
					dists[i] = all[order[i]]
				}
				out := particle.NewRows(rows.Schema())
				out.Extend(k)
				stride := rows.Schema().Stride()
				out.Span(0, k, func(lo int, dst []byte) { rows.Gather(dst, order, lo, lo+len(dst)/stride) })
				rows.Release()
				return out, dists, st, nil
			}
		}
		rows.Release()
		if r >= maxR {
			return nil, nil, st, fmt.Errorf("query: exhausted domain with %d of %d neighbours", found, k)
		}
		r *= 2
	}
}

// Halo reads the particles of a patch plus those within `halo` of it —
// the ghost layer a stencil operation needs. It returns the owned and
// ghost particles separately.
func Halo(ds *reader.Dataset, patch geom.Box, halo float64, opts reader.Options) (own, ghost *particle.Buffer, st reader.Stats, err error) {
	o, g, st, err := HaloRows(ds, patch, halo, opts)
	if err != nil {
		return nil, nil, st, err
	}
	return o.Buffer(), g.Buffer(), st, nil
}

// HaloRows is Halo for a caller that sends the answer on instead of
// looking at it (a server): the same particles as rows, which the caller
// owns.
func HaloRows(ds *reader.Dataset, patch geom.Box, halo float64, opts reader.Options) (own, ghost *particle.Rows, st reader.Stats, err error) {
	if halo < 0 {
		return nil, nil, st, fmt.Errorf("query: negative halo %v", halo)
	}
	grown := geom.NewBox(
		patch.Lo.Sub(geom.V3(halo, halo, halo)),
		patch.Hi.Add(geom.V3(halo, halo, halo)),
	)
	// One pass: the closed grown box selects, the half-open patch splits
	// the selection into owned and ghost.
	schema := ds.Meta().Schema
	proj, err := schema.ProjectOnto(opts.Fields)
	if err != nil {
		return nil, nil, st, err
	}
	f := particle.NewHaloFilter(schema, proj, grown, patch)
	st, err = ds.Scan(ds.Meta().FilesIntersecting(grown), opts, f.Select, f.Take)
	if err != nil {
		f.Release()
		return nil, nil, st, err
	}
	own, ghost = f.Rows()
	st.ParticlesKept = int64(own.Len() + ghost.Len())
	return own, ghost, st, nil
}

// DensityGrid estimates the particle count per cell of a dims grid over
// the domain by reading only the first `levels` LOD levels and scaling
// by the inverse sampling fraction. levels <= 0 reads everything (exact
// counts). Returns the estimated counts and the sampled fraction.
func DensityGrid(ds *reader.Dataset, dims geom.Idx3, levels, readers int) ([]float64, float64, reader.Stats, error) {
	counts, sampled, st, err := DensityGridRaw(ds, dims, reader.Options{Levels: levels, Readers: readers})
	if err != nil {
		return nil, 0, st, err
	}
	frac := ScaleDensity(counts, sampled, ds.Meta().Total)
	return counts, frac, st, nil
}

// DensityGridRaw is the unscaled half of DensityGrid: it reads the LOD
// prefix selected by opts and returns the per-cell raw sample counts
// plus the number of particles sampled, without dividing by the
// sampling fraction. A gateway sums raw counts across shards and scales
// once against the merged total — scaling per shard and summing would
// both bias the estimate (shards sample at different effective
// fractions) and break bit-identity with the single-node answer.
func DensityGridRaw(ds *reader.Dataset, dims geom.Idx3, opts reader.Options) ([]float64, int64, reader.Stats, error) {
	if dims.X <= 0 || dims.Y <= 0 || dims.Z <= 0 {
		return nil, 0, reader.Stats{}, fmt.Errorf("query: density grid dims must be positive, got %v", dims)
	}
	meta := ds.Meta()
	grid := geom.NewGrid(meta.Domain, dims)
	counts := make([]float64, grid.Cells())
	// Positions are all a density needs: project onto them, so a
	// compressed block inflates its position plane alone, and count
	// straight from the record bytes.
	opts.Fields = []string{particle.PositionField}
	stride := meta.Schema.Stride()
	st, err := ds.Scan(meta.AllFiles(), opts, nil, func(recs []byte, _ []int32) error {
		for off := 0; off < len(recs); off += stride {
			counts[grid.LocateLinear(particle.PositionAt(recs, off))]++
		}
		return nil
	})
	if err != nil {
		return nil, 0, st, err
	}
	st.ParticlesKept = st.ParticlesRead
	return counts, st.ParticlesRead, st, nil
}

// ScaleDensity converts raw sample counts into density estimates in
// place: every cell is divided by the sampling fraction sampled/total.
// It returns the fraction. The arithmetic — one float64 division of the
// two counts, then one division per cell — is shared by the local and
// gateway paths so their results are bit-identical.
func ScaleDensity(counts []float64, sampled, total int64) float64 {
	frac := 1.0
	if total > 0 {
		frac = float64(sampled) / float64(total)
	}
	if frac > 0 {
		for i := range counts {
			counts[i] /= frac
		}
	}
	return frac
}
