// Package agg implements the paper's spatially-aware two-phase
// aggregation (Section 3): the aggregation-grid imposed on the simulation
// domain, uniform aggregator selection over the rank space, the
// metadata-then-data particle exchange, and the adaptive aggregation-grid
// for non-uniform particle distributions (Section 6).
package agg

import (
	"fmt"

	"spio/internal/geom"
	"spio/internal/particle"
)

// Config describes the write-side aggregation setup.
type Config struct {
	// Domain is the full simulation domain.
	Domain geom.Box
	// SimDims is the simulation's patch decomposition; one patch per
	// rank, so SimDims.Volume() must equal the world size. Rank r owns
	// the patch at row-major coordinate Unlinear(r, SimDims).
	SimDims geom.Idx3
	// Factor is the aggregation partition factor (Px, Py, Pz) of
	// Section 3.1: each aggregation partition spans Factor patches per
	// axis. Each component must divide the matching SimDims component
	// (the aligned-grid requirement).
	Factor geom.Idx3
}

// Validate checks the configuration against a world size.
func (c Config) Validate(nRanks int) error {
	if c.Domain.IsEmpty() {
		return fmt.Errorf("agg: empty domain %v", c.Domain)
	}
	if c.SimDims.X <= 0 || c.SimDims.Y <= 0 || c.SimDims.Z <= 0 {
		return fmt.Errorf("agg: invalid sim dims %v", c.SimDims)
	}
	if v := c.SimDims.Volume(); v != nRanks {
		return fmt.Errorf("agg: sim dims %v cover %d patches, world has %d ranks", c.SimDims, v, nRanks)
	}
	if c.Factor.X <= 0 || c.Factor.Y <= 0 || c.Factor.Z <= 0 {
		return fmt.Errorf("agg: invalid partition factor %v", c.Factor)
	}
	if c.SimDims.X%c.Factor.X != 0 || c.SimDims.Y%c.Factor.Y != 0 || c.SimDims.Z%c.Factor.Z != 0 {
		return fmt.Errorf("agg: partition factor %v does not divide sim dims %v", c.Factor, c.SimDims)
	}
	return nil
}

// NumFiles returns the file count f = (nx/Px)·(ny/Py)·(nz/Pz) of
// Section 3.1.
func (c Config) NumFiles() int {
	return (c.SimDims.X / c.Factor.X) * (c.SimDims.Y / c.Factor.Y) * (c.SimDims.Z / c.Factor.Z)
}

// GroupSize returns the number of ranks aggregated into one partition,
// Px·Py·Pz.
func (c Config) GroupSize() int { return c.Factor.Volume() }

// Layout is the resolved aggregation structure for a uniform (aligned)
// write: the simulation grid, the coarsened aggregation-grid, and the
// aggregator rank owning each partition.
type Layout struct {
	Config
	NumRanks    int
	SimGrid     geom.Grid
	AggGrid     geom.Grid
	aggregators []int // partition linear index -> aggregator rank
}

// NewLayout validates cfg and resolves the aggregation structure for a
// world of nRanks.
func NewLayout(cfg Config, nRanks int) (*Layout, error) {
	if err := cfg.Validate(nRanks); err != nil {
		return nil, err
	}
	simGrid := geom.NewGrid(cfg.Domain, cfg.SimDims)
	aggGrid, err := simGrid.CoarsenBy(cfg.Factor)
	if err != nil {
		return nil, err
	}
	l := &Layout{
		Config:   cfg,
		NumRanks: nRanks,
		SimGrid:  simGrid,
		AggGrid:  aggGrid,
	}
	l.aggregators = selectAggregators(nRanks, aggGrid.Cells())
	return l, nil
}

// selectAggregators spreads nParts aggregators uniformly over the rank
// space (Section 3.2: "with 16 participating processes and 4 aggregation
// partitions, we assign processes with ranks 0, 4, 8 and 12"), ensuring
// even network and I/O-node utilization rather than picking a rank
// inside each partition.
func selectAggregators(nRanks, nParts int) []int {
	out := make([]int, nParts)
	for i := range out {
		out[i] = i * nRanks / nParts
	}
	return out
}

// NumPartitions returns the number of aggregation partitions (= files).
func (l *Layout) NumPartitions() int { return l.AggGrid.Cells() }

// Aggregator returns the rank that owns partition part.
func (l *Layout) Aggregator(part int) int { return l.aggregators[part] }

// Aggregators returns a copy of the partition → aggregator table.
func (l *Layout) Aggregators() []int {
	cp := make([]int, len(l.aggregators))
	copy(cp, l.aggregators)
	return cp
}

// IsAggregator reports whether rank owns some partition, and which.
func (l *Layout) IsAggregator(rank int) (part int, ok bool) {
	for p, r := range l.aggregators {
		if r == rank {
			return p, true
		}
	}
	return -1, false
}

// PatchOf returns the simulation patch box of a rank.
func (l *Layout) PatchOf(rank int) geom.Box {
	return l.SimGrid.CellBox(geom.Unlinear(rank, l.SimDims))
}

// PartitionOfRank returns the aggregation partition containing a rank's
// whole patch. Valid because the grid is aligned: a patch never straddles
// partitions (Section 3.3: "the domain of each process is always
// contained inside a single partition").
func (l *Layout) PartitionOfRank(rank int) int {
	fine := geom.Unlinear(rank, l.SimDims)
	coarse := geom.CellOfCell(fine, l.Factor)
	return coarse.Linear(l.AggGrid.Dims)
}

// AggregatorOfRank returns the aggregator a rank sends its particles to.
func (l *Layout) AggregatorOfRank(rank int) int {
	return l.aggregators[l.PartitionOfRank(rank)]
}

// PartitionBox returns the box of partition part.
func (l *Layout) PartitionBox(part int) geom.Box {
	return l.AggGrid.CellBoxLinear(part)
}

// RanksInPartition returns the ranks whose patches lie inside partition
// part, in rank order — the aggregator's expected sender set for aligned
// exchanges.
func (l *Layout) RanksInPartition(part int) []int {
	coarse := geom.Unlinear(part, l.AggGrid.Dims)
	out := make([]int, 0, l.GroupSize())
	base := coarse.Mul(l.Factor)
	for dz := 0; dz < l.Factor.Z; dz++ {
		for dy := 0; dy < l.Factor.Y; dy++ {
			for dx := 0; dx < l.Factor.X; dx++ {
				fine := base.Add(geom.I3(dx, dy, dz))
				out = append(out, fine.Linear(l.SimDims))
			}
		}
	}
	return out
}

// SplitByPartition bins a buffer's particles by the aggregation
// partition containing them — the per-particle scan needed for
// non-aligned grids (Section 3: "If a process's data is split into two
// aggregators, it must loop through the particles to determine which
// aggregator they belong to"). The result has, per partition, the indices
// of its particles in buffer order (empty for a partition that gets
// none): a sender encodes each bundle through its list
// (Buffer.EncodeRecordsGather), so no per-partition buffer is built.
func SplitByPartition(buf *particle.Buffer, aggGrid geom.Grid) [][]int {
	cells := aggGrid.Cells()
	n := buf.Len()
	parts := make([]int, n)
	counts := make([]int, cells)
	for i := 0; i < n; i++ {
		p := aggGrid.LocateLinear(buf.Position(i))
		parts[i] = p
		counts[p]++
	}
	// Bucket the indices into one backing array via a counting sort:
	// offs[p] is where partition p's index run starts.
	offs := make([]int, cells+1)
	for p, c := range counts {
		offs[p+1] = offs[p] + c
	}
	order := make([]int, n)
	next := make([]int, cells)
	copy(next, offs[:cells])
	for i, p := range parts {
		order[next[p]] = i
		next[p]++
	}
	out := make([][]int, cells)
	for p := range out {
		out[p] = order[offs[p]:offs[p+1]]
	}
	return out
}
