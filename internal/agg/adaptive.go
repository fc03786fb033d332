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
// and ranks without particles drop out of the subsequent phases.

// AdaptiveLayout is the resolved adaptive aggregation structure. Unlike
// Layout it is generally not aligned with the simulation patches, so the
// exchange scans particles into partitions (ExchangeScan).
type AdaptiveLayout struct {
	// Grid partitions the occupied subdomain.
	Grid geom.Grid
	// Occupied is the tight union of non-empty ranks' bounds.
	Occupied geom.Box
	// NumRanks is the world size.
	NumRanks int
	// RankBounds and RankCounts are the gathered per-rank extents and
	// particle counts (the all-to-all exchange's payload).
	RankBounds []geom.Box
	RankCounts []int64
	// aggregators maps partition -> owning rank, uniform over the rank
	// space.
	aggregators []int
	// senderSets maps partition -> ranks that will announce a count.
	senderSets [][]int
}

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

// boundsEps returns the inflation used to make closed particle bounds
// safely half-open against partition boxes.
func boundsEps(domain geom.Box) float64 {
	s := domain.Size()
	return 1e-9 * (math.Abs(s.X) + math.Abs(s.Y) + math.Abs(s.Z) + 1)
}

// inflate grows a closed bounding box into a half-open one, clamped to
// the domain.
func inflate(b, domain geom.Box, eps float64) geom.Box {
	hi := b.Hi.Add(geom.V3(eps, eps, eps)).Min(domain.Hi)
	return geom.Box{Lo: b.Lo, Hi: hi}
}

// BuildAdaptive exchanges extents and counts across all ranks (the
// paper's "processes perform an all-to-all exchange and send each other
// their spatial extents, and the number of particles within their
// extents") and independently computes the identical adaptive layout on
// every rank. parts is the desired partition-grid shape (same role as
// AggDims for the uniform layout); its volume must not exceed the world
// size. local supplies this rank's bounds and count.
func BuildAdaptive(c *mpi.Comm, domain geom.Box, parts geom.Idx3, local *particle.Buffer) (*AdaptiveLayout, error) {
	if parts.X <= 0 || parts.Y <= 0 || parts.Z <= 0 {
		return nil, fmt.Errorf("agg: invalid partition dims %v", parts)
	}
	if parts.Volume() > c.Size() {
		return nil, fmt.Errorf("agg: %d partitions exceed world size %d", parts.Volume(), c.Size())
	}

	payload := encodeExtent(local.Bounds(), int64(local.Len()))
	gathered := c.Allgather(payload)

	l := &AdaptiveLayout{
		NumRanks:   c.Size(),
		RankBounds: make([]geom.Box, c.Size()),
		RankCounts: make([]int64, c.Size()),
	}
	occupied := geom.EmptyBox()
	anyParticles := false
	for r, msg := range gathered {
		b, n, err := decodeExtent(msg)
		if err != nil {
			return nil, fmt.Errorf("agg: rank %d: %w", r, err)
		}
		l.RankBounds[r] = b
		l.RankCounts[r] = n
		if n > 0 {
			occupied = occupied.Union(b)
			anyParticles = true
		}
	}
	if !anyParticles {
		return nil, fmt.Errorf("agg: no rank holds any particles")
	}
	l.Occupied = occupied

	// The grid spans only the occupied region ("the aggregation-grid is
	// then adjusted to partition just those regions which contain
	// particles"), inflated so the max particle is strictly inside.
	eps := boundsEps(domain)
	gridBox := inflate(occupied, domain, eps)
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
	l.Grid = geom.NewGrid(gridBox, parts)

	// Aggregators uniformly over the entire rank space (Section 6: "the
	// adaptive grid places aggregators uniformly across the entire rank
	// space, and ensures that no aggregator is assigned to empty
	// simulation domain" — every partition of the adaptive grid holds
	// occupied space by construction).
	l.aggregators = selectAggregators(c.Size(), parts.Volume())

	// Sender sets: rank r will announce a count to partition p iff r has
	// particles and its inflated bounds intersect p's box. Every rank
	// computes this from the identical gathered table, so senders and
	// receivers agree. Ranks without particles "do not participate in
	// the subsequent stages at all".
	l.senderSets = make([][]int, parts.Volume())
	for p := range l.senderSets {
		pb := l.Grid.CellBoxLinear(p)
		for r := 0; r < c.Size(); r++ {
			if l.RankCounts[r] == 0 {
				continue
			}
			if inflate(l.RankBounds[r], domain, eps).Intersects(pb) {
				l.senderSets[p] = append(l.senderSets[p], r)
			}
		}
	}
	return l, nil
}

// NumPartitions returns the partition (= file) count.
func (l *AdaptiveLayout) NumPartitions() int { return l.Grid.Cells() }

// Aggregator returns the rank owning partition part.
func (l *AdaptiveLayout) Aggregator(part int) int { return l.aggregators[part] }

// Aggregators returns a copy of the partition → aggregator table.
func (l *AdaptiveLayout) Aggregators() []int {
	cp := make([]int, len(l.aggregators))
	copy(cp, l.aggregators)
	return cp
}

// IsAggregator reports whether rank owns some partition.
func (l *AdaptiveLayout) IsAggregator(rank int) (part int, ok bool) {
	for p, r := range l.aggregators {
		if r == rank {
			return p, true
		}
	}
	return -1, false
}

// SenderSet returns the ranks that will announce counts to partition
// part's aggregator.
func (l *AdaptiveLayout) SenderSet(part int) []int { return l.senderSets[part] }

// PartitionBox returns the box of partition part.
func (l *AdaptiveLayout) PartitionBox(part int) geom.Box {
	return l.Grid.CellBoxLinear(part)
}

// Exchange runs the scanning two-phase exchange over the adaptive
// layout. Aggregator ranks get their partition's particles; others nil.
func (l *AdaptiveLayout) Exchange(c *mpi.Comm, local *particle.Buffer) (*particle.Buffer, Timing, error) {
	return ExchangeScan(c, l.Grid, l.aggregators, l.senderSets, local)
}
