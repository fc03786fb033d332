package agg

import (
	"encoding/binary"
	"fmt"
	"math"

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
// result is a ScanLayout: it is generally not aligned with the simulation
// patches, so the exchange scans particles into partitions.

// extentMsg is the 56-byte payload each rank contributes to the
// all-to-all extent exchange: its bounding box and particle count.
func encodeExtent(b geom.Box, count int64) []byte {
	out := make([]byte, 56)
	put := func(i int, v float64) {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	put(0, b.Lo.X)
	put(1, b.Lo.Y)
	put(2, b.Lo.Z)
	put(3, b.Hi.X)
	put(4, b.Hi.Y)
	put(5, b.Hi.Z)
	binary.LittleEndian.PutUint64(out[48:], uint64(count))
	return out
}

func decodeExtent(data []byte) (geom.Box, int64, error) {
	if len(data) != 56 {
		return geom.Box{}, 0, fmt.Errorf("agg: extent message has %d bytes, want 56", len(data))
	}
	get := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	b := geom.Box{
		Lo: geom.Vec3{X: get(0), Y: get(1), Z: get(2)},
		Hi: geom.Vec3{X: get(3), Y: get(4), Z: get(5)},
	}
	return b, int64(binary.LittleEndian.Uint64(data[48:])), nil
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
// size. local supplies this rank's bounds and count.
func BuildAdaptive(c *mpi.Comm, domain geom.Box, parts geom.Idx3, local *particle.Buffer) (*ScanLayout, error) {
	if parts.X <= 0 || parts.Y <= 0 || parts.Z <= 0 {
		return nil, fmt.Errorf("agg: invalid partition dims %v", parts)
	}
	if parts.Volume() > c.Size() {
		return nil, fmt.Errorf("agg: %d partitions exceed world size %d", parts.Volume(), c.Size())
	}

	payload := encodeExtent(local.Bounds(), int64(local.Len()))
	gathered := c.Allgather(payload)

	// The gathered per-rank extents and counts: the all-to-all exchange's
	// payload, identical on every rank.
	rankBounds := make([]geom.Box, c.Size())
	rankCounts := make([]int64, c.Size())
	occupied := geom.EmptyBox()
	anyParticles := false
	for r, msg := range gathered {
		b, n, err := decodeExtent(msg)
		if err != nil {
			return nil, fmt.Errorf("agg: rank %d: %w", r, err)
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
	l := &ScanLayout{
		Grid:     geom.NewGrid(gridBox, parts),
		NumRanks: c.Size(),
		Occupied: occupied,
		// Aggregators uniformly over the entire rank space (Section 6:
		// "the adaptive grid places aggregators uniformly across the
		// entire rank space, and ensures that no aggregator is assigned to
		// empty simulation domain" — every partition of the adaptive grid
		// holds occupied space by construction).
		aggregators: selectAggregators(c.Size(), parts.Volume()),
		senderSets:  make([][]int, parts.Volume()),
	}

	// Sender sets: rank r will announce a count to partition p iff r has
	// particles and p lies in the range of cells r's closed bounds span
	// under the clamped Grid.Locate that SplitByPartition bins with.
	// Locate is monotone per axis, so every particle of r is binned
	// inside that range: sender sets and bins agree by construction,
	// whatever a particle on an upper face or an inflation below the
	// coordinates' precision does to a box test. Every rank computes this
	// from the identical gathered table, so senders and receivers agree.
	// Ranks without particles "do not participate in the subsequent
	// stages at all".
	for r := 0; r < c.Size(); r++ {
		if rankCounts[r] == 0 {
			continue
		}
		lo, hi := l.Grid.Locate(rankBounds[r].Lo), l.Grid.Locate(rankBounds[r].Hi)
		for z := lo.Z; z <= hi.Z; z++ {
			for y := lo.Y; y <= hi.Y; y++ {
				for x := lo.X; x <= hi.X; x++ {
					p := geom.I3(x, y, z).Linear(parts)
					l.senderSets[p] = append(l.senderSets[p], r)
				}
			}
		}
	}
	return l, nil
}
