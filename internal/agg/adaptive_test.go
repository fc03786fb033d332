package agg

import (
	"bytes"
	"fmt"
	"testing"

	"spio/internal/binio"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// runAdaptive runs BuildAdaptive + Exchange over the occupancy workload
// and returns per-partition buffers plus one representative layout.
func runAdaptive(t *testing.T, nRanks int, simDims, parts geom.Idx3, q float64, perRank int) ([]*particle.Buffer, *Layout) {
	t.Helper()
	domain := geom.UnitBox()
	simGrid := geom.NewGrid(domain, simDims)
	results := make([]*particle.Buffer, parts.Volume())
	layouts := make([]*Layout, nRanks)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		patch := simGrid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Occupancy(particle.Uintah(), domain, patch, perRank, q, 19, c.Rank())
		l, err := BuildAdaptive(c, domain, parts, local)
		if err != nil {
			return err
		}
		layouts[c.Rank()] = l
		ag, _, err := l.Exchange(c, local)
		collect(results, ag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, layouts[0]
}

func TestAdaptiveLayoutConsistentAcrossRanks(t *testing.T) {
	domain := geom.UnitBox()
	simDims := geom.I3(4, 2, 1)
	simGrid := geom.NewGrid(domain, simDims)
	grids := make([]geom.Grid, 8)
	err := mpi.Run(8, func(c *mpi.Comm) error {
		patch := simGrid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Occupancy(particle.Uintah(), domain, patch, 50, 0.5, 3, c.Rank())
		l, err := BuildAdaptive(c, domain, geom.I3(2, 2, 1), local)
		if err != nil {
			return err
		}
		grids[c.Rank()] = l.Grid
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 8; r++ {
		if grids[r] != grids[0] {
			t.Fatalf("rank %d derived grid %v, rank 0 derived %v", r, grids[r], grids[0])
		}
	}
}

func TestAdaptiveGridCoversOnlyOccupiedRegion(t *testing.T) {
	// q=0.25: particles live in x < 0.25. The adaptive grid must span
	// roughly that slab, not the whole domain (Fig. 10f).
	_, l := runAdaptive(t, 8, geom.I3(4, 2, 1), geom.I3(2, 2, 1), 0.25, 200)
	if l.Grid.Domain.Hi.X > 0.3 {
		t.Errorf("adaptive grid spans to x=%v; should hug the occupied 0.25 slab", l.Grid.Domain.Hi.X)
	}
	if l.Occupied.Hi.X >= 0.25+1e-6 {
		t.Errorf("occupied region %v exceeds the 25%% slab", l.Occupied)
	}
}

func TestAdaptiveConservesParticlesAndBalances(t *testing.T) {
	for _, q := range []float64{1.0, 0.5, 0.25} {
		results, l := runAdaptive(t, 16, geom.I3(4, 4, 1), geom.I3(2, 2, 1), q, 100)
		total := 0
		nonEmpty := 0
		var mx, mn int
		mn = 1 << 30
		for p, b := range results {
			if b == nil {
				t.Fatalf("q=%v: partition %d has no aggregated buffer", q, p)
			}
			total += b.Len()
			if b.Len() > 0 {
				nonEmpty++
			}
			if b.Len() > mx {
				mx = b.Len()
			}
			if b.Len() < mn {
				mn = b.Len()
			}
			box := l.Grid.CellBoxLinear(p)
			for i := 0; i < b.Len(); i++ {
				if !box.Contains(b.Position(i)) && !box.ContainsClosed(b.Position(i)) {
					t.Fatalf("q=%v: partition %d holds out-of-box particle", q, p)
				}
			}
		}
		if total != 1600 {
			t.Errorf("q=%v: total %d, want 1600", q, total)
		}
		// The adaptive grid's purpose: no empty partitions, roughly even
		// load, at any occupancy.
		if nonEmpty != len(results) {
			t.Errorf("q=%v: only %d of %d partitions non-empty", q, nonEmpty, len(results))
		}
		if mx > 3*mn {
			t.Errorf("q=%v: load imbalance %d..%d", q, mn, mx)
		}
	}
}

func TestNonAdaptiveLeavesEmptyPartitionsAdaptiveDoesNot(t *testing.T) {
	// The Fig. 10e vs 10f contrast, as data: at q=0.25 a non-adaptive
	// 4-partition grid leaves partitions empty; the adaptive grid fills
	// all of them.
	nRanks := 16
	simDims := geom.I3(4, 4, 1)
	cfg := unitCfg(simDims, geom.I3(2, 2, 1)) // partitions split x in half
	l, err := NewLayout(cfg, nRanks)
	if err != nil {
		t.Fatal(err)
	}
	domain := geom.UnitBox()
	simGrid := geom.NewGrid(domain, simDims)
	nonAdaptive := make([]*particle.Buffer, l.NumPartitions())
	err = mpi.Run(nRanks, func(c *mpi.Comm) error {
		patch := simGrid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Occupancy(particle.Uintah(), domain, patch, 100, 0.25, 19, c.Rank())
		ag, _, err := l.Exchange(c, local)
		collect(nonAdaptive, ag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, b := range nonAdaptive {
		if b.Len() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("non-adaptive aggregation at q=0.25 should leave empty partitions")
	}
	adaptive, _ := runAdaptive(t, nRanks, simDims, geom.I3(2, 2, 1), 0.25, 100)
	for p, b := range adaptive {
		if b.Len() == 0 {
			t.Errorf("adaptive partition %d empty", p)
		}
	}
}

func TestAdaptiveEmptyRanksDoNotSend(t *testing.T) {
	// At q=0.25 on a 4x1x1 decomposition, ranks 1..3 are empty; the
	// sender sets must contain only rank 0.
	domain := geom.UnitBox()
	simDims := geom.I3(4, 1, 1)
	simGrid := geom.NewGrid(domain, simDims)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		patch := simGrid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Occupancy(particle.Uintah(), domain, patch, 50, 0.25, 7, c.Rank())
		l, err := BuildAdaptive(c, domain, geom.I3(2, 1, 1), local)
		if err != nil {
			return err
		}
		for p := 0; p < l.NumPartitions(); p++ {
			for _, r := range l.Senders(p) {
				if r != 0 {
					return fmt.Errorf("partition %d sender set includes empty rank %d", p, r)
				}
			}
		}
		ag, _, err := l.Exchange(c, local)
		ag.Rows.Release()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildAdaptiveErrors(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		empty := particle.NewBuffer(particle.Uintah(), 0)
		if _, err := BuildAdaptive(c, geom.UnitBox(), geom.I3(1, 1, 1), empty); err == nil {
			return fmt.Errorf("all-empty world accepted")
		}
		if _, err := BuildAdaptive(c, geom.UnitBox(), geom.I3(4, 1, 1), empty); err == nil {
			return fmt.Errorf("more partitions than ranks accepted")
		}
		if _, err := BuildAdaptive(c, geom.UnitBox(), geom.I3(0, 1, 1), empty); err == nil {
			return fmt.Errorf("zero partition dims accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveClusteredWorkload(t *testing.T) {
	// Clustered (Fig. 10a style) distribution: all particles everywhere
	// but unevenly; exchange must still conserve and localize.
	domain := geom.UnitBox()
	simDims := geom.I3(2, 2, 1)
	simGrid := geom.NewGrid(domain, simDims)
	results := make([]*particle.Buffer, 4)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		patch := simGrid.CellBox(geom.Unlinear(c.Rank(), simDims))
		local := particle.Clustered(particle.Uintah(), patch, 150, 2, 23, c.Rank())
		l, err := BuildAdaptive(c, domain, geom.I3(2, 2, 1), local)
		if err != nil {
			return err
		}
		ag, _, err := l.Exchange(c, local)
		collect(results, ag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range results {
		total += b.Len()
	}
	if total != 600 {
		t.Errorf("total %d, want 600", total)
	}
}

// TestExtentCodecRoundTrip and TestCountCodecRoundTrip send messages whose
// fields are all non-zero and distinct, so two that traded places on one
// side would decode as each other; a message a byte short or a byte long
// is refused.
func TestExtentCodecRoundTrip(t *testing.T) {
	b := geom.NewBox(geom.V3(-1, 2, 3.5), geom.V3(4, 5, 6))
	var msg bytes.Buffer
	encodeExtent(binio.NewWriter(&msg), b, 12345)
	d := binio.NewReader(bytes.NewReader(msg.Bytes()), "agg")
	back, n := decodeExtent(d)
	if err := d.Whole(msg.Len()); err != nil || back != b || n != 12345 || msg.Len() != 56 {
		t.Errorf("roundtrip of %d bytes: %v %d %v", msg.Len(), back, n, err)
	}
	for _, torn := range [][]byte{msg.Bytes()[:55], append(msg.Bytes(), 0)} {
		d := binio.NewReader(bytes.NewReader(torn), "agg")
		decodeExtent(d)
		if d.Whole(len(torn)) == nil {
			t.Errorf("extent message of %d bytes accepted", len(torn))
		}
	}
}

func TestCountCodecRoundTrip(t *testing.T) {
	var msg bytes.Buffer
	encodeCount(binio.NewWriter(&msg), 0x0102030405060708)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	d := binio.NewReader(bytes.NewReader(msg.Bytes()), "agg")
	if n := decodeCount(d); d.Whole(8) != nil || n != 0x0102030405060708 || !bytes.Equal(msg.Bytes(), want) {
		t.Errorf("count travelled as % x and came back %#x (%v)", msg.Bytes(), n, d.Err())
	}
}
