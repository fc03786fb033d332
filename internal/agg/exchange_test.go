package agg

import (
	"fmt"
	"testing"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// collect ends an exchange in a test: an aggregator's rows become the
// columns the assertions read, filed under its partition.
func collect(results []*particle.Buffer, ag Aggregate) {
	if ag.Rows != nil {
		results[ag.Part] = ag.Rows.Buffer()
	}
}

// runAligned generates a uniform workload, runs the aligned exchange, and
// returns the per-partition aggregated buffers (indexed by partition).
func runAligned(t *testing.T, cfg Config, nRanks, perRank int) []*particle.Buffer {
	t.Helper()
	l, err := NewLayout(cfg, nRanks)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*particle.Buffer, l.NumPartitions())
	err = mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), patchOf(cfg, c.Rank()), perRank, 7, c.Rank())
		ag, _, err := l.Exchange(c, local)
		if part, ok := l.IsAggregator(c.Rank()); ok != (ag.Rows != nil) || part != ag.Part {
			err = fmt.Errorf("aggregate of partition %d (rows: %v) on the aggregator of %d (%v)", ag.Part, ag.Rows != nil, part, ok)
		}
		collect(results, ag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestExchangeAlignedConservesParticles(t *testing.T) {
	cfg := unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1))
	results := runAligned(t, cfg, 16, 100)
	total := 0
	for part, b := range results {
		if b == nil {
			t.Fatalf("partition %d missing", part)
		}
		total += b.Len()
	}
	if total != 1600 {
		t.Errorf("aggregated %d particles, want 1600", total)
	}
}

func TestExchangeAlignedSpatialLocality(t *testing.T) {
	// The paper's central claim: after aggregation, every particle in a
	// partition's buffer lies inside that partition's box.
	cfg := unitCfg(geom.I3(4, 4, 2), geom.I3(2, 2, 2))
	l, _ := NewLayout(cfg, 32)
	results := runAligned(t, cfg, 32, 50)
	for part, b := range results {
		box := l.PartitionBox(part)
		for i := 0; i < b.Len(); i++ {
			if !box.Contains(b.Position(i)) && !box.ContainsClosed(b.Position(i)) {
				t.Fatalf("partition %d holds particle at %v outside %v", part, b.Position(i), box)
			}
		}
	}
}

func TestExchangeAlignedNoParticleLostOrDuplicated(t *testing.T) {
	cfg := unitCfg(geom.I3(2, 2, 2), geom.I3(2, 1, 1))
	results := runAligned(t, cfg, 8, 40)
	// Regenerate every rank's particles and check multiset equality of
	// global IDs.
	want := make(map[float64]int)
	for rank := 0; rank < 8; rank++ {
		b := particle.Uniform(particle.Uintah(), patchOf(cfg, rank), 40, 7, rank)
		ids := b.Float64Field(b.Schema().FieldIndex("id"))
		for _, id := range ids {
			want[id]++
		}
	}
	got := make(map[float64]int)
	for _, b := range results {
		ids := b.Float64Field(b.Schema().FieldIndex("id"))
		for _, id := range ids {
			got[id]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct ids, want %d", len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("id %v: got %d copies, want %d", id, got[id], n)
		}
	}
}

func TestExchangeAlignedFilePerProcess(t *testing.T) {
	// (1,1,1) degenerates to file-per-process: every rank is its own
	// aggregator and keeps exactly its own particles.
	cfg := unitCfg(geom.I3(2, 2, 1), geom.I3(1, 1, 1))
	l, _ := NewLayout(cfg, 4)
	results := runAligned(t, cfg, 4, 30)
	for part, b := range results {
		rank := l.Aggregator(part)
		want := particle.Uniform(particle.Uintah(), patchOf(cfg, rank), 30, 7, rank)
		if !b.Equal(want) {
			t.Errorf("partition %d buffer differs from its own rank's particles", part)
		}
	}
}

func TestExchangeAlignedSharedFile(t *testing.T) {
	// Whole-domain factor: all-to-one aggregation, single file.
	cfg := unitCfg(geom.I3(2, 2, 1), geom.I3(2, 2, 1))
	results := runAligned(t, cfg, 4, 25)
	if len(results) != 1 {
		t.Fatalf("%d partitions, want 1", len(results))
	}
	if results[0].Len() != 100 {
		t.Errorf("aggregated %d, want 100", results[0].Len())
	}
}

func TestExchangeAlignedDeterministicOrder(t *testing.T) {
	// Aggregated buffers receive sender bundles in rank order, so two
	// identical runs produce identical buffers.
	cfg := unitCfg(geom.I3(4, 2, 1), geom.I3(2, 2, 1))
	a := runAligned(t, cfg, 8, 20)
	b := runAligned(t, cfg, 8, 20)
	for part := range a {
		if !a[part].Equal(b[part]) {
			t.Fatalf("partition %d differs across identical runs", part)
		}
	}
}

func TestExchangeAlignedWorldSizeMismatch(t *testing.T) {
	l, _ := NewLayout(unitCfg(geom.I3(4, 2, 1), geom.I3(2, 2, 1)), 8)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		_, _, err := l.Exchange(c, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("mismatched world accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeAlignedEmptyRanks(t *testing.T) {
	// Ranks with zero particles still participate in the metadata
	// exchange (count 0) and the protocol completes.
	cfg := unitCfg(geom.I3(4, 1, 1), geom.I3(2, 1, 1))
	l, _ := NewLayout(cfg, 4)
	results := make([]*particle.Buffer, l.NumPartitions())
	err := mpi.Run(4, func(c *mpi.Comm) error {
		var local *particle.Buffer
		if c.Rank()%2 == 0 {
			local = particle.Uniform(particle.Uintah(), patchOf(cfg, c.Rank()), 10, 1, c.Rank())
		} else {
			local = particle.NewBuffer(particle.Uintah(), 0)
		}
		ag, _, err := l.Exchange(c, local)
		collect(results, ag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Len() != 10 || results[1].Len() != 10 {
		t.Errorf("counts = %d, %d; want 10, 10", results[0].Len(), results[1].Len())
	}
}

func TestExchangeTimingPopulated(t *testing.T) {
	cfg := unitCfg(geom.I3(2, 2, 1), geom.I3(2, 2, 1))
	l, _ := NewLayout(cfg, 4)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), patchOf(cfg, c.Rank()), 100, 3, c.Rank())
		ag, tm, err := l.Exchange(c, local)
		ag.Rows.Release()
		if err != nil {
			return err
		}
		if tm.MetadataExchange < 0 || tm.ParticleExchange < 0 {
			return fmt.Errorf("negative phase timing")
		}
		if tm.Aggregation() != tm.MetadataExchange+tm.ParticleExchange {
			return fmt.Errorf("Aggregation() inconsistent")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeScanNonAligned(t *testing.T) {
	// A grid deliberately misaligned with patches: 3 partitions over a
	// 4-rank 1D decomposition; ranks straddle partition boundaries and
	// must scan. Sender sets come from the patches' blocks.
	domain := geom.UnitBox()
	simGrid := geom.NewGrid(domain, geom.I3(4, 1, 1))
	patches := make([]geom.Box, 4)
	for r := range patches {
		patches[r] = simGrid.CellBoxLinear(r)
	}
	l, err := NewImposedLayout(domain, geom.I3(3, 1, 1), patches)
	if err != nil {
		t.Fatal(err)
	}
	grid := l.Grid
	results := make([]*particle.Buffer, 3)
	err = mpi.Run(4, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), simGrid.CellBoxLinear(c.Rank()), 90, 5, c.Rank())
		ag, _, err := l.Exchange(c, local)
		collect(results, ag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p, b := range results {
		if b == nil {
			t.Fatalf("partition %d missing", p)
		}
		total += b.Len()
		box := grid.CellBoxLinear(p)
		for i := 0; i < b.Len(); i++ {
			if !box.Contains(b.Position(i)) && !box.ContainsClosed(b.Position(i)) {
				t.Fatalf("partition %d got particle at %v", p, b.Position(i))
			}
		}
	}
	if total != 4*90 {
		t.Errorf("total = %d, want 360", total)
	}
}
