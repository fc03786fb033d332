// Package agg implements the paper's spatially-aware two-phase
// aggregation (Section 3): an aggregation-grid over the simulation
// domain, aggregators spread uniformly over the rank space, and the
// metadata-then-data particle exchange.
//
// There is one Layout. Each rank has a block, the inclusive range of grid
// cells its particles are binned into, and the senders of a partition are
// the ranks whose block holds it. The three constructors differ only in
// where a rank's block comes from: NewLayout (the aligned grid of Section
// 3.3, one cell by index arithmetic), NewImposedLayout (an arbitrary grid
// over the ranks' patches) and BuildAdaptive (a grid fitted to the
// occupied region, Section 6).
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

// Layout is the resolved aggregation structure, identical on every rank:
// the aggregation-grid, the aggregator owning each partition, and each
// rank's block.
type Layout struct {
	// Grid is the aggregation-grid; its cells are the partitions (= files).
	Grid geom.Grid
	// Occupied is the tight union of the non-empty ranks' bounds that an
	// adaptive grid was fitted to; BuildAdaptive sets it, the other
	// constructors leave it zero.
	Occupied    geom.Box
	aggregators []int   // partition -> aggregator rank
	blocks      []block // rank -> the cells its particles are binned into
	senders     [][]int // partition -> ranks whose block holds it, in rank order
}

// block is an inclusive range of grid cells. noBlock, the block of a rank
// with nothing to send, holds none.
type block struct{ lo, hi geom.Idx3 }

var noBlock = block{hi: geom.I3(-1, -1, -1)}

// cells calls fn with the linear index of every cell of b, in row-major
// order.
func (b block) cells(dims geom.Idx3, fn func(part int)) {
	for z := b.lo.Z; z <= b.hi.Z; z++ {
		for y := b.lo.Y; y <= b.hi.Y; y++ {
			for x := b.lo.X; x <= b.hi.X; x++ {
				fn(geom.I3(x, y, z).Linear(dims))
			}
		}
	}
}

// span is the block of the closed box b: the cells Locate puts its
// corners in and every cell between. Locate is monotone per axis, so
// every point of b is located inside the block.
func span(grid geom.Grid, b geom.Box) block {
	return block{grid.Locate(b.Lo), grid.Locate(b.Hi)}
}

// newLayout completes a layout from its grid and its ranks' blocks: the
// aggregators, spread uniformly over the rank space, and the sender sets.
func newLayout(grid geom.Grid, blocks []block) *Layout {
	l := &Layout{
		Grid:        grid,
		aggregators: selectAggregators(len(blocks), grid.Cells()),
		blocks:      blocks,
		senders:     make([][]int, grid.Cells()),
	}
	for r, b := range blocks {
		b.cells(grid.Dims, func(p int) { l.senders[p] = append(l.senders[p], r) })
	}
	return l
}

// NewLayout validates cfg and resolves the aligned aggregation-grid for a
// world of nRanks: the simulation grid coarsened by the partition factor.
func NewLayout(cfg Config, nRanks int) (*Layout, error) {
	if err := cfg.Validate(nRanks); err != nil {
		return nil, err
	}
	grid, err := geom.NewGrid(cfg.Domain, cfg.SimDims).CoarsenBy(cfg.Factor)
	if err != nil {
		return nil, err
	}
	// A rank's block is its patch's one cell, by index arithmetic (Section
	// 3.3: "the domain of each process is always contained inside a single
	// partition"). span of the closed patch would also take in the upper
	// neighbours its Hi corner touches, and make every rank scan.
	blocks := make([]block, nRanks)
	for r := range blocks {
		cell := geom.CellOfCell(geom.Unlinear(r, cfg.SimDims), cfg.Factor)
		blocks[r] = block{cell, cell}
	}
	return newLayout(grid, blocks), nil
}

// NewImposedLayout imposes an arbitrary aggregation-grid of shape parts
// on the domain, generally not aligned with the nRanks = len(rankPatches)
// writers' patches (the general case of Section 3). A rank's block is
// the span of its closed patch. Every rank must build the layout from the
// same arguments.
func NewImposedLayout(domain geom.Box, parts geom.Idx3, rankPatches []geom.Box) (*Layout, error) {
	if err := checkParts(parts, len(rankPatches)); err != nil {
		return nil, err
	}
	if domain.IsEmpty() {
		return nil, fmt.Errorf("agg: empty domain %v", domain)
	}
	grid := geom.NewGrid(domain, parts)
	blocks := make([]block, len(rankPatches))
	for r, patch := range rankPatches {
		blocks[r] = span(grid, patch)
	}
	return newLayout(grid, blocks), nil
}

// checkParts validates a partition-grid shape for a world of n ranks.
func checkParts(parts geom.Idx3, n int) error {
	if parts.X <= 0 || parts.Y <= 0 || parts.Z <= 0 {
		return fmt.Errorf("agg: invalid partition dims %v", parts)
	}
	if parts.Volume() > n {
		return fmt.Errorf("agg: %d partitions exceed %d ranks", parts.Volume(), n)
	}
	return nil
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
func (l *Layout) NumPartitions() int { return l.Grid.Cells() }

// Aggregator returns the rank that owns partition part.
func (l *Layout) Aggregator(part int) int { return l.aggregators[part] }

// IsAggregator reports whether rank owns some partition, and which.
func (l *Layout) IsAggregator(rank int) (part int, ok bool) {
	for p, r := range l.aggregators {
		if r == rank {
			return p, true
		}
	}
	return -1, false
}

// Senders returns the ranks that announce a count to partition part: every
// rank whose block holds it, in rank order.
func (l *Layout) Senders(part int) []int { return l.senders[part] }

// PartitionBox returns the box of partition part.
func (l *Layout) PartitionBox(part int) geom.Box {
	return l.Grid.CellBoxLinear(part)
}

// SplitByPartition bins a buffer's particles by the cell of grid that
// holds them, clamped into the block [lo, hi] — the per-particle scan of a
// rank whose block spans several cells (Section 3: "If a process's data is
// split into two aggregators, it must loop through the particles to
// determine which aggregator they belong to"). The result has, per
// partition, the indices of its particles in buffer order (empty for a
// partition that gets none): a sender encodes each bundle through its list
// (Buffer.EncodeRecordsGather), so no per-partition buffer is built.
func SplitByPartition(buf *particle.Buffer, grid geom.Grid, lo, hi geom.Idx3) [][]int {
	cells := grid.Cells()
	n := buf.Len()
	parts := make([]int, n)
	counts := make([]int, cells)
	for i := 0; i < n; i++ {
		c := grid.Locate(buf.Position(i))
		c = geom.I3(min(max(c.X, lo.X), hi.X), min(max(c.Y, lo.Y), hi.Y), min(max(c.Z, lo.Z), hi.Z))
		p := c.Linear(grid.Dims)
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
