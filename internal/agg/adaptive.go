package agg

import (
	"bytes"
	"fmt"
	"math"

	"spio/internal/binio"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// Adaptive aggregation (Section 6): for non-uniform particle
// distributions — lower density in parts of the domain, or regions with
// no particles at all — a layout-agnostic grid wastes aggregators on
// empty space. The adaptive grid is rebuilt over only the occupied
// subdomain: ranks all-to-all exchange their spatial extents and particle
// counts, every rank independently derives the identical occupied region
// and grid, aggregators stay uniformly spread over the entire rank space,
// and ranks without particles drop out of the subsequent phases. The
// grid is generally not aligned with the simulation patches, so a rank
// whose bounds span several cells scans its particles into them.

// encodeExtent and decodeExtent are the 56-byte payload each rank
// contributes to the all-to-all extent exchange: its bounding box and
// particle count.
func encodeExtent(e *binio.Writer, b geom.Box, count int64) {
	e.Box(b)
	e.I64(count)
}

func decodeExtent(d *binio.Reader) (geom.Box, int64) {
	return d.Box(), d.I64()
}

// boundsEps returns the inflation that makes the occupied region's closed
// bounds a half-open grid box.
func boundsEps(domain geom.Box) float64 {
	s := domain.Size()
	return 1e-9 * (math.Abs(s.X) + math.Abs(s.Y) + math.Abs(s.Z) + 1)
}

// BuildAdaptive exchanges extents and counts across all ranks (the
// paper's "processes perform an all-to-all exchange and send each other
// their spatial extents, and the number of particles within their
// extents") and independently computes the identical adaptive layout on
// every rank. parts is the desired partition-grid shape (same role as
// AggDims for the uniform layout); its volume must not exceed the world
// size. local supplies this rank's bounds and count. A rank's block is
// the span of its gathered closed bounds; a rank without particles has
// none and "does not participate in the subsequent stages at all".
func BuildAdaptive(c *mpi.Comm, domain geom.Box, parts geom.Idx3, local *particle.Buffer) (*Layout, error) {
	if err := checkParts(parts, c.Size()); err != nil {
		return nil, err
	}

	var payload bytes.Buffer
	encodeExtent(binio.NewWriter(&payload), local.Bounds(), int64(local.Len()))
	gathered := c.Allgather(payload.Bytes())

	// The gathered per-rank extents and counts: the all-to-all exchange's
	// payload, identical on every rank.
	rankBounds := make([]geom.Box, c.Size())
	rankCounts := make([]int64, c.Size())
	occupied := geom.EmptyBox()
	anyParticles := false
	for r, msg := range gathered {
		d := binio.NewReader(bytes.NewReader(msg), "agg")
		b, n := decodeExtent(d)
		if err := d.Whole(len(msg)); err != nil {
			return nil, fmt.Errorf("agg: rank %d's extent: %w", r, err)
		}
		rankBounds[r], rankCounts[r] = b, n
		if n > 0 {
			occupied = occupied.Union(b)
			anyParticles = true
		}
	}
	if !anyParticles {
		return nil, fmt.Errorf("agg: no rank holds any particles")
	}

	// The grid spans only the occupied region ("the aggregation-grid is
	// then adjusted to partition just those regions which contain
	// particles"), inflated so the max particle is strictly inside, and
	// clamped to the domain.
	eps := boundsEps(domain)
	gridBox := geom.Box{Lo: occupied.Lo, Hi: occupied.Hi.Add(geom.V3(eps, eps, eps)).Min(domain.Hi)}
	if gridBox.IsEmpty() {
		// Degenerate occupied region (e.g. all particles coplanar on the
		// domain's upper face); give the flat axes a minimal thickness.
		hi := gridBox.Hi
		if hi.X <= gridBox.Lo.X {
			hi.X = gridBox.Lo.X + eps
		}
		if hi.Y <= gridBox.Lo.Y {
			hi.Y = gridBox.Lo.Y + eps
		}
		if hi.Z <= gridBox.Lo.Z {
			hi.Z = gridBox.Lo.Z + eps
		}
		gridBox.Hi = hi
	}
	grid := geom.NewGrid(gridBox, parts)
	blocks := make([]block, c.Size())
	for r := range blocks {
		blocks[r] = noBlock
		if rankCounts[r] > 0 {
			blocks[r] = span(grid, rankBounds[r])
		}
	}
	// Aggregators uniformly over the entire rank space (Section 6: "the
	// adaptive grid places aggregators uniformly across the entire rank
	// space, and ensures that no aggregator is assigned to empty
	// simulation domain" — every partition of the adaptive grid holds
	// occupied space by construction).
	l := newLayout(grid, blocks)
	l.Occupied = occupied
	return l, nil
}
