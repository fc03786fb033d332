package agg

import (
	"fmt"

	"spio/internal/geom"
)

// ScanLayout is the general, non-aligned aggregation structure the paper
// describes in Section 3: an arbitrary rectilinear aggregation-grid
// imposed on the domain (NewScanLayout) or fitted to the occupied part of
// it (BuildAdaptive, Section 6), not necessarily aligned with the
// simulation's patches. Ranks whose particles straddle partition
// boundaries scan them to split them among several aggregators ("If a
// process's data is split into two aggregators, it must loop through the
// particles to determine which aggregator they belong to").
type ScanLayout struct {
	// Grid is the aggregation-grid.
	Grid geom.Grid
	// NumRanks is the world size.
	NumRanks int
	// Occupied is the tight union of the non-empty ranks' bounds that an
	// adaptive grid was fitted to; BuildAdaptive sets it, an imposed grid
	// leaves it zero.
	Occupied geom.Box
	// aggregators maps partition -> owning rank, uniform over the rank
	// space.
	aggregators []int
	// senderSets maps partition -> ranks that will announce a count, in
	// rank order.
	senderSets [][]int
}

// NewScanLayout builds a scan layout for nRanks writers whose particles
// are confined to rankPatches (one box per rank — typically the
// simulation patch). parts is the aggregation-grid shape; its volume
// must not exceed nRanks. Every rank must construct the layout from the
// same arguments so sender sets agree.
func NewScanLayout(domain geom.Box, parts geom.Idx3, rankPatches []geom.Box) (*ScanLayout, error) {
	if parts.X <= 0 || parts.Y <= 0 || parts.Z <= 0 {
		return nil, fmt.Errorf("agg: invalid partition dims %v", parts)
	}
	n := len(rankPatches)
	if n == 0 {
		return nil, fmt.Errorf("agg: no rank patches")
	}
	if parts.Volume() > n {
		return nil, fmt.Errorf("agg: %d partitions exceed %d ranks", parts.Volume(), n)
	}
	if domain.IsEmpty() {
		return nil, fmt.Errorf("agg: empty domain %v", domain)
	}
	l := &ScanLayout{
		Grid:        geom.NewGrid(domain, parts),
		NumRanks:    n,
		aggregators: selectAggregators(n, parts.Volume()),
	}
	l.senderSets = make([][]int, parts.Volume())
	for p := range l.senderSets {
		pb := l.Grid.CellBoxLinear(p)
		for r, patch := range rankPatches {
			if patch.Intersects(pb) {
				l.senderSets[p] = append(l.senderSets[p], r)
			}
		}
	}
	return l, nil
}

// NumPartitions returns the partition (= file) count.
func (l *ScanLayout) NumPartitions() int { return l.Grid.Cells() }

// Aggregator returns the rank owning partition part.
func (l *ScanLayout) Aggregator(part int) int { return l.aggregators[part] }

// IsAggregator reports whether rank owns some partition.
func (l *ScanLayout) IsAggregator(rank int) (part int, ok bool) {
	for p, r := range l.aggregators {
		if r == rank {
			return p, true
		}
	}
	return -1, false
}

// SenderSet returns the ranks announcing counts to partition part.
func (l *ScanLayout) SenderSet(part int) []int { return l.senderSets[part] }

// PartitionBox returns the box of partition part.
func (l *ScanLayout) PartitionBox(part int) geom.Box {
	return l.Grid.CellBoxLinear(part)
}
